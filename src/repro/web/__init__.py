"""The web frontend (paper §4.4).

A Sinatra-like micro framework with the interception points SafeWeb
needs: a *before* hook where the middleware authenticates the request and
fetches the user's privileges from the web database, and an *after* hook
where the response's labels are validated against those privileges before
anything reaches the client. Application route code in between runs
unmodified — labels travel through it via the taint-tracking types.
"""

from repro.web.request import Request
from repro.web.response import Response
from repro.web.framework import SafeWebApp, halt
from repro.web.templates import Template, TemplateRegistry, render
from repro.web.auth import BasicAuthenticator, CachingAuthenticator
from repro.web.middleware import SafeWebMiddleware
from repro.web.pagecache import PageCache
from repro.web.sessions import SessionMiddleware
from repro.web.http import HttpServer, TestClient

__all__ = [
    "Request",
    "Response",
    "SafeWebApp",
    "halt",
    "Template",
    "TemplateRegistry",
    "render",
    "BasicAuthenticator",
    "CachingAuthenticator",
    "SafeWebMiddleware",
    "PageCache",
    "SessionMiddleware",
    "HttpServer",
    "TestClient",
]
