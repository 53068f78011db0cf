#!/usr/bin/env python3
"""Reject-path test for the Python ARPB/ARPS decoders in scripts/validate_manifest.py.

The tools.* ctest legs feed validate_manifest.py only files the C++ encoders
just wrote, so they prove the accept path alone.  This test runs --binary
over fuzz/corpus/binfmt/ and --auth-store over fuzz/corpus/authstore/ and
checks every seed's verdict: the valid seeds pass (for ARPB, up to
schema-level "missing required key" problems, since the fuzz seeds carry
minimal metadata), and every other seed is rejected for its container-level
reason.  A seed added to either corpus without an entry here fails the test.

Usage: validate_decoders_corpus_test.py REPO_ROOT
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

# Seed file -> regex one reported problem must match (None = accepted).
AUTHSTORE = {
    "valid-small.arps": None,
    "empty-store.arps": None,
    "key-mode.arps": None,
    "bad-magic.arps": r"bad magic",
    "version-2.arps": r"unsupported store version 2",
    "reserved-nonzero.arps": r"reserved header bytes are nonzero",
    "truncated-header.arps": r"truncated inside the 40-byte header",
    "truncated-index.arps": r"file is 44 bytes but the header implies",
    "truncated-record.arps": r"file is 170 bytes but the header implies",
    "trailing-byte.arps": r"file is 131 bytes but the header implies 130",
    "huge-count.arps": r"file is 104 bytes but the header implies",
    "unsorted-index.arps": r"device index not strictly increasing at entry 1",
    "duplicate-id.arps": r"device index not strictly increasing at entry 1",
    "bad-tag-bytes.arps": r"tag_bytes 16 \(expected 32\)",
    "zero-bits.arps": r"store carries neither responses nor helper data",
}

BINFMT = {
    "valid-shard.bin": None,
    "empty-container.bin": None,
    "bad-magic.bin": r"bad magic",
    "version-2.bin": r"unsupported format version 2",
    "reserved-nonzero.bin": r"reserved header bytes are nonzero",
    "truncated-header.bin": r"truncated inside header",
    "truncated-mid-series.bin": r"series 'e3.aro.uniformity' declares 4 values but they "
                                r"do not fit in the file",
    "huge-count.bin": r"truncated inside series 's' alignment padding",
    "trailing-byte.bin": r"1 trailing bytes after the last series",
}

# Problems the ARPB seeds may show beyond their container verdict: the fuzz
# seeds embed minimal metadata, not a full run manifest.
SCHEMA_ONLY = re.compile(r"missing required key '[a-z_]+'$")


def check(validate, corpus: Path, expected: dict[str, str | None]) -> list[str]:
    errors = []
    seeds = sorted(p.name for p in corpus.iterdir() if p.is_file())
    for name in sorted(set(seeds) - set(expected)):
        errors.append(f"{corpus / name}: seed has no expected verdict in this test")
    for name in sorted(set(expected) - set(seeds)):
        errors.append(f"{corpus / name}: expected seed is missing from the corpus")
    for name in sorted(set(seeds) & set(expected)):
        path = corpus / name
        with contextlib.redirect_stdout(io.StringIO()):
            problems = [p.split(": ", 1)[1] for p in validate(path)]
        container = [p for p in problems if not SCHEMA_ONLY.search(p)]
        reason = expected[name]
        if reason is None:
            if container:
                errors.append(f"{path}: expected accepted, got {container}")
        elif not any(re.search(reason, p) for p in container):
            errors.append(f"{path}: expected a problem matching /{reason}/, got {problems}")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[1])
    spec = importlib.util.spec_from_file_location(
        "validate_manifest", root / "scripts" / "validate_manifest.py")
    vm = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vm)
    errors = check(vm.validate_auth_store, root / "fuzz" / "corpus" / "authstore", AUTHSTORE)
    errors += check(vm.validate_binary, root / "fuzz" / "corpus" / "binfmt", BINFMT)
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{len(AUTHSTORE)} ARPS and {len(BINFMT)} ARPB corpus seeds "
              "have the expected verdicts")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
