"""Retired-API check for the benchmark's own sources.

The benchmark builds its deployment only from APIs that survive the
planned collapse to one serving model, one inspection wire format and one
testbed. This check fails when a benchmark source names one of the APIs
slated for deletion, so removing them never has to touch the benchmark.

    python3 fig1bench/check_sources.py     # exit 1 and list any use
"""

import os
import re
import sys

# Identifier -> pattern. Word-bounded so e.g. serve_frame( is not serve(.
RETIRED = {
    "ServeMode::kThreadPerConnection": r"\bkThreadPerConnection\b",
    "Controller::serve": r"\bserve\s*\(",
    "http::serve_connection": r"\bserve_connection\b",
    "net::blocking_driver": r"\bblocking_driver\b",
    "InspectionClient::Codec": r"\bCodec\b",
    "HostCallRing": r"\bHostCallRing\b",
    "examples/testbed.h": r"testbed\.h",
}

SOURCE_SUFFIXES = (".h", ".cpp", ".txt")


def forbidden_uses(root):
    """Every `file:line: identifier` where a source under `root` (C++ and
    CMake files) names a retired API."""
    hits = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if not name.endswith(SOURCE_SUFFIXES):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                for number, line in enumerate(f, 1):
                    for identifier, pattern in RETIRED.items():
                        if re.search(pattern, line):
                            hits.append("%s:%d: %s" % (
                                os.path.relpath(path, root), number,
                                identifier))
    return hits


if __name__ == "__main__":
    found = forbidden_uses(os.path.dirname(os.path.abspath(__file__)))
    for hit in found:
        print(hit)
    sys.exit(1 if found else 0)
