"""Every relative Markdown link in the docs resolves to a file.

Covers ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, ``docs/*.md``
and ``perfbench/*.md``.  A link with a URL scheme (``https:``,
``mailto:``) or a bare ``#anchor`` is skipped; a fragment on a file
link is ignored, the file itself must exist.
"""

import glob
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "perfbench/*.md"]
#: ``[text](target)`` and ``![alt](target "title")``; the target is
#: the first whitespace-free run inside the parentheses
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)[^)]*\)")
SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


def _documents():
    found = []
    for pattern in DOCS:
        found.extend(sorted(glob.glob(os.path.join(REPO_ROOT, pattern))))
    return [os.path.relpath(path, REPO_ROOT) for path in found]


def _relative_links(document: str):
    with open(os.path.join(REPO_ROOT, document), encoding="utf-8") as fh:
        targets = LINK.findall(fh.read())
    return [t for t in targets if not SCHEME.match(t) and not t.startswith("#")]


def test_every_document_is_found():
    documents = _documents()
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md"} <= set(documents)
    assert any(d.startswith("docs" + os.sep) for d in documents)
    assert sum(len(_relative_links(d)) for d in documents) > 0


@pytest.mark.parametrize("document", _documents())
def test_relative_links_resolve(document):
    base = os.path.dirname(os.path.join(REPO_ROOT, document))
    dead = [
        target
        for target in _relative_links(document)
        if not os.path.exists(os.path.join(base, target.split("#")[0]))
    ]
    assert not dead, f"{document} links to missing files: {dead}"
