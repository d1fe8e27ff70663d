"""Fixture-driven tests for the taint source→sink dataflow pass."""

from pathlib import Path

from analysis.framework import ModuleSource, analyze_source
from analysis.taint import LABELED, _all_functions, _FunctionAnalysis, _module_context


def rules_of(source: str, rel: str = "snippet.py"):
    return [finding.rule for finding in analyze_source(source, rel=rel)]


def return_taint_of(source: str, function: str):
    """The taint kinds the pass computes for *function*'s return value."""
    module = ModuleSource.parse(Path("snippet.py"), "snippet.py", source=source)
    analysis = _FunctionAnalysis(module, {}, *_module_context(module), None)
    (func,) = [f for f in _all_functions(module.tree) if f.name == function]
    return analysis.run(func).returns


class TestHtmlResponse:
    def test_flags_user_input_concatenated_into_response(self):
        assert "taint-html-response" in rules_of(
            "def echo(request):\n"
            "    message = request.params.get('message', '')\n"
            "    page = '<html>' + message + '</html>'\n"
            "    return Response(page)\n"
        )

    def test_flags_fstring_assembly_returned_directly(self):
        assert "taint-html-response" in rules_of(
            "def echo(request):\n"
            "    name = request.params['name']\n"
            "    return f'<p>hello {name}</p>'\n"
        )

    def test_escaped_input_is_fine(self):
        assert "taint-html-response" not in rules_of(
            "def echo(request):\n"
            "    message = html_escape(request.params.get('message', ''))\n"
            "    return Response('<html>' + message + '</html>')\n"
        )

    def test_template_render_is_fine(self):
        assert "taint-html-response" not in rules_of(
            "def echo(request, templates):\n"
            "    return Response(templates.render('page', "
            "message=request.params.get('m')))\n"
        )

    def test_store_data_without_user_taint_is_fine(self):
        assert "taint-html-response" not in rules_of(
            "def records(request, db):\n"
            "    rows = db.view('r/by_mid', key=str(request.user.mdt_id))\n"
            "    return Response(json_codec.dumps([r.value for r in rows]))\n"
        )


class TestSqlExec:
    def test_flags_user_input_reaching_execute(self):
        assert "taint-sql-exec" in rules_of(
            "def search(request, connection):\n"
            "    term = request.params.get('q', '')\n"
            "    query = \"SELECT name FROM users WHERE name = '\" + term + \"'\"\n"
            "    return connection.execute(query)\n"
        )

    def test_quoted_input_is_fine(self):
        assert "taint-sql-exec" not in rules_of(
            "def search(request, connection):\n"
            "    term = sql_quote(request.params.get('q', ''))\n"
            "    return connection.execute('SELECT name FROM users WHERE name = ' + term)\n"
        )

    def test_parameterised_query_is_fine(self):
        assert "taint-sql-exec" not in rules_of(
            "def search(request, connection):\n"
            "    term = request.params.get('q', '')\n"
            "    return connection.execute('SELECT name FROM users WHERE name = ?', (term,))\n"
        )


class TestStoreWrite:
    def test_flags_append_to_shared_collection(self):
        assert "taint-store-write" in rules_of(
            "board = []\n"
            "def post(request):\n"
            "    board.append(request.params.get('message', ''))\n"
        )

    def test_flags_subscript_store_into_shared_mapping(self):
        assert "taint-store-write" in rules_of(
            "notes = {}\n"
            "def post(request):\n"
            "    notes[request.user.name] = request.params['note']\n"
        )

    def test_escaped_append_is_fine(self):
        assert "taint-store-write" not in rules_of(
            "board = []\n"
            "def post(request):\n"
            "    board.append(html_escape(request.params.get('message', '')))\n"
        )

    def test_local_collection_is_fine(self):
        assert "taint-store-write" not in rules_of(
            "def post(request):\n"
            "    local = []\n"
            "    local.append(request.params.get('message', ''))\n"
            "    return len(local)\n"
        )


class TestRawJson:
    def test_flags_raw_dumps_of_store_documents(self):
        assert "ifc-raw-json" in rules_of(
            "import json\n"
            "def export(request, db):\n"
            "    rows = db.view('records/by_mid', key='1')\n"
            "    return json.dumps([r.value for r in rows])\n"
        )

    def test_json_codec_is_fine(self):
        assert "ifc-raw-json" not in rules_of(
            "from repro.taint import json_codec\n"
            "def export(request, db):\n"
            "    rows = db.view('records/by_mid', key='1')\n"
            "    return json_codec.dumps([r.value for r in rows])\n"
        )

    JOINED_RECORDS = (
        "from repro.taint import json_codec\n"
        "def records(request, db):\n"
        "    rows = db.view('records/by_mid', key=str(request.params['mid']), include_docs=True)\n"
        "    rows.sort(key=lambda row: str(row.value.get('patient_id', '')))\n"
        "    return Response(json_codec.join_array([row.json for row in rows]))\n"
    )

    def test_join_of_row_fragments_is_fine_and_still_labelled_at_the_response(self):
        assert rules_of(self.JOINED_RECORDS) == []
        assert return_taint_of(self.JOINED_RECORDS, "records") == {LABELED}

    def test_join_keeps_labelled_taint_for_the_sinks_that_care(self):
        assert "ifc-unlabeled-publish" in rules_of(
            "from repro.taint import json_codec\n"
            "def export(request, db, engine):\n"
            "    rows = db.view('records/by_mid', key='1', include_docs=True)\n"
            "    engine.publish('/export', {'body': json_codec.join_array([r.json for r in rows])})\n"
        )

    PARTIAL_PAGE = (
        "def front_page(request, db, templates):\n"
        "    rows = db.view('records/by_mid', key=str(request.user.mdt_id), include_docs=True)\n"
        "    return Response(templates.render('front-page', title=request.params.get('t'), rows=rows))\n"
    )

    def test_page_of_row_partials_is_fine_and_still_labelled_at_the_response(self):
        assert rules_of(self.PARTIAL_PAGE) == []
        assert return_taint_of(self.PARTIAL_PAGE, "front_page") == {LABELED}

    def test_derived_forms_are_labelled_like_row_json(self):
        handler = (
            "import json\n"
            "from repro.taint import json_codec\n"
            "def export(request, db, engine):\n"
            "    rows = db.view('records/by_mid', key='1', include_docs=True)\n"
            "    engine.publish('/export', {{'body': [row.form({derive}) for row in rows]}})\n"
        )
        assert rules_of(handler.format(derive="json_codec.dumps")) == ["ifc-unlabeled-publish"]
        assert rules_of(handler.format(derive="render_row")) == ["ifc-unlabeled-publish"]
        assert "ifc-raw-json" in rules_of(handler.format(derive="json.dumps"))

    def test_join_clears_user_taint_like_dumps(self):
        handler = (
            "from repro.taint import json_codec\n"
            "def echo(request):\n"
            "    return Response({codec}.join_array([request.params.get('q', '')]))\n"
        )
        assert "taint-html-response" not in rules_of(handler.format(codec="json_codec"))
        assert "taint-html-response" in rules_of(handler.format(codec="homegrown"))

    def test_raw_dumps_of_plain_config_is_fine(self):
        assert "ifc-raw-json" not in rules_of(
            "import json\n"
            "def save(config):\n"
            "    return json.dumps({'workers': 4})\n"
        )


class TestUnlabeledPublish:
    def test_flags_handler_publishing_store_reads(self):
        assert "ifc-unlabeled-publish" in rules_of(
            "def post_bulletin(request, dmz_db, engine):\n"
            "    doc = dmz_db.view('records/by_mid', key='3')[0].value\n"
            "    engine.publish('/bulletin/post', {'headline': doc['name']})\n"
        )

    def test_publish_of_plain_values_is_fine(self):
        assert "ifc-unlabeled-publish" not in rules_of(
            "def ping(request, engine):\n"
            "    engine.publish('/health', {'ok': True})\n"
        )


class TestCallSummaries:
    def test_taint_flows_through_helper_returns(self):
        assert "taint-sql-exec" in rules_of(
            "def normalise(value):\n"
            "    return value.strip()\n"
            "def search(request, connection):\n"
            "    term = normalise(request.params.get('q', ''))\n"
            "    connection.execute('SELECT name FROM t WHERE n = ' + term)\n"
        )

    def test_sinks_inside_helpers_flag_tainted_call_sites(self):
        source = (
            "def run_query(connection, query):\n"
            "    return connection.execute(query)\n"
            "def search(request, connection):\n"
            "    term = request.params.get('q', '')\n"
            "    return run_query(connection, 'SELECT n FROM t WHERE n = ' + term)\n"
        )
        findings = analyze_source(source)
        assert [f.line for f in findings if f.rule == "taint-sql-exec"] == [5]

    def test_sanitising_helper_clears_taint(self):
        assert "taint-sql-exec" not in rules_of(
            "def clean(value):\n"
            "    return sql_quote(value)\n"
            "def search(request, connection):\n"
            "    term = clean(request.params.get('q', ''))\n"
            "    connection.execute('SELECT name FROM t WHERE n = ' + term)\n"
        )
