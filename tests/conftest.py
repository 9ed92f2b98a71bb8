import hashlib
import json

import pytest

from hopfcyclic import cli


def _report_sha256(report) -> str:
    text = json.dumps(cli._jsonify(report), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def report_sha256():
    """Digest of a report as the CLI writes it, to pin a report byte for byte."""
    return _report_sha256
