"""Unit tests for the SQLite web database."""

import threading

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.core.privileges import CLEARANCE, DECLASSIFICATION
from repro.exceptions import SafeWebError
from repro.storage import WebDatabase

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")


@pytest.fixture()
def db() -> WebDatabase:
    database = WebDatabase()
    yield database
    database.close()


class TestUsers:
    def test_add_and_lookup(self, db):
        user_id = db.add_user("mdt1", "secret", mdt="1", region="east")
        assert db.user_id("mdt1") == user_id
        row = db.user_row(user_id)
        assert row["mdt"] == "1"
        assert row["region"] == "east"

    def test_lookup_is_case_sensitive(self, db):
        db.add_user("mdt1", "secret")
        assert db.user_id("MDT1") is None

    def test_duplicate_name_rejected(self, db):
        db.add_user("mdt1", "secret")
        import sqlite3

        with pytest.raises(sqlite3.IntegrityError):
            db.add_user("mdt1", "other")

    def test_password_check(self, db):
        db.add_user("mdt1", "secret")
        assert db.check_password("mdt1", "secret")
        assert not db.check_password("mdt1", "wrong")
        assert not db.check_password("ghost", "secret")

    def test_admin_flag(self, db):
        admin_id = db.add_user("admin", "pw", is_admin=True)
        plain_id = db.add_user("user", "pw")
        assert db.is_admin(admin_id)
        assert not db.is_admin(plain_id)

    def test_user_names(self, db):
        db.add_user("b", "pw")
        db.add_user("a", "pw")
        assert db.user_names() == ["a", "b"]


class TestLabelPrivileges:
    def test_grant_and_fetch(self, db):
        user_id = db.add_user("mdt1", "secret")
        db.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        db.grant_label_privilege(user_id, DECLASSIFICATION, MDT_1.uri)
        privileges = db.privileges_for(user_id)
        assert privileges.clearance_covers(LabelSet([MDT_1]))
        assert privileges.can_declassify(LabelSet([MDT_1]))

    def test_grant_is_idempotent(self, db):
        user_id = db.add_user("mdt1", "secret")
        db.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        db.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        assert len(db.privileges_for(user_id).labels_for(CLEARANCE)) == 1

    def test_revoke(self, db):
        user_id = db.add_user("mdt1", "secret")
        db.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        db.revoke_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        assert not db.privileges_for(user_id).clearance_covers(LabelSet([MDT_1]))

    def test_unknown_kind_rejected(self, db):
        user_id = db.add_user("mdt1", "secret")
        with pytest.raises(SafeWebError):
            db.grant_label_privilege(user_id, "root", MDT_1.uri)

    def test_principal_for(self, db):
        user_id = db.add_user("mdt1", "secret", mdt="1", region="east")
        db.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        principal = db.principal_for("mdt1")
        assert principal.mdt_id == "1"
        assert principal.check_password("secret")
        assert principal.privileges.clearance_covers(LabelSet([MDT_1]))
        assert db.principal_for("ghost") is None


class TestAclPrivileges:
    """The Listing 3 `Privileges.count(:conditions => …)` surface."""

    def test_count_with_conditions(self, db):
        user_id = db.add_user("doctor", "pw")
        db.grant_acl(user_id, hospital="h1", clinic="breast")
        assert db.count_privileges(u_id=user_id, hospital="h1", clinic="breast") == 1
        assert db.count_privileges(u_id=user_id, hospital="h1", clinic="lung") == 0
        assert db.count_privileges(u_id=user_id, hospital="h2", clinic="breast") == 0

    def test_count_without_clinic_condition(self, db):
        """Dropping the clinic condition is the §5.2 'inappropriate access
        check' injection — the count becomes too permissive."""
        user_id = db.add_user("doctor", "pw")
        db.grant_acl(user_id, hospital="h1", clinic="breast")
        assert db.count_privileges(u_id=user_id, hospital="h1") == 1

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SafeWebError):
            db.count_privileges(evil="1; DROP TABLE users")


class TestSessions:
    def test_create_and_resolve(self, db):
        user_id = db.add_user("mdt1", "secret")
        token = db.create_session(user_id)
        assert db.session_user(token) == user_id

    def test_unknown_token(self, db):
        assert db.session_user("bogus") is None

    def test_expiry(self, db):
        user_id = db.add_user("mdt1", "secret")
        token = db.create_session(user_id)
        assert db.session_user(token, max_age=-1) is None
        assert db.session_count() == 0  # expired sessions removed

    def test_delete(self, db):
        user_id = db.add_user("mdt1", "secret")
        token = db.create_session(user_id)
        db.delete_session(token)
        assert db.session_user(token) is None


class TestConcurrency:
    def test_parallel_session_creation(self, db):
        user_id = db.add_user("mdt1", "secret")
        tokens = []
        lock = threading.Lock()

        def work():
            for _ in range(20):
                token = db.create_session(user_id)
                with lock:
                    tokens.append(token)

        threads = [threading.Thread(target=work) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(tokens)) == 100
        assert db.session_count() == 100
