from pathlib import Path

import pytest

WORKFLOWS = sorted((Path(__file__).resolve().parent.parent / ".github" / "workflows").glob("*"))


def test_there_is_a_workflow():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_is_valid_yaml(path):
    """GitHub runs no step of a workflow file that does not parse, so an unquoted ': ' in a step name disables CI."""
    import yaml  # in the test extra; imported here so a missing PyYAML fails this test, not the collection

    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc, dict) and doc.get("jobs")
