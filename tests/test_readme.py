import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs_and_its_plan_reproduces_both_audits():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Library use") :]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = []
    namespace = {"print": lambda *args: printed.append(args)}
    exec(compile(snippet, str(README), "exec"), namespace)
    report, result = namespace["report"], namespace["result"]
    # the loop's two p-values, as its comment says
    assert printed[-2:] == [(report.gpf_fae,), (result.report_after.gpf_fae,)]
