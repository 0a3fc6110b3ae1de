"""``repro serve`` over stdio keeps native output off the protocol stream.

Native code writes to file descriptor 1 directly, past ``sys.stdout``:
the vendored HiGHS MIP prints a diagnostic line there on some models even
with its output switched off.  Served over stdio, such bytes would land
between JSON responses, so the server writes its responses to a private
duplicate of fd 1 and points fd 1 itself at stderr.
"""

import json
import subprocess
import sys
import textwrap

from repro.dtd.serializer import dtd_to_string
from repro.workloads.examples import sigma1_constraints, teachers_dtd_d1

# Every HiGHS run of the served process first writes raw bytes to fd 1,
# and the first one also runs a MIP on which HiGHS itself prints to fd 1.
_NOISY_SERVE = """
    import os
    import sys

    from repro.cli import main
    from repro.ilp import assembled
    from repro.ilp.model import LinearSystem

    solve = assembled._HighsInstance.solve
    pinned = LinearSystem()
    pinned.add_eq({"v0": 3, "v1": 2, "v2": 3}, 1)
    for name in ("v0", "v1", "v2"):
        pinned.set_upper(name, 8)
    native = [assembled.AssembledSystem(pinned)]

    def noisy(self, *args):
        os.write(1, b"raw bytes on fd 1\\n")
        if native:
            native.pop().solve_int({})
        return solve(self, *args)

    assembled._HighsInstance.solve = noisy
    sys.exit(main(["serve"]))
"""


def test_native_fd1_writes_stay_off_the_protocol():
    d1 = dtd_to_string(teachers_dtd_d1())
    sigma1 = "\n".join(str(phi) for phi in sigma1_constraints())
    spec = {"dtd": d1, "constraints": sigma1}
    requests = [
        {"id": 1, "op": "check", **spec},
        {"id": 2, "op": "check", "dtd": d1,
         "constraints": "subject.taught_by <= teacher.name"},
        {"id": 3, "op": "implies", **spec, "phi": "teacher.name -> teacher"},
        {"id": 4, "op": "shutdown"},
    ]
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_NOISY_SERVE)],
        input="".join(json.dumps(request) + "\n" for request in requests),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    responses = {}
    for line in proc.stdout.splitlines():  # JSON lines only
        response = json.loads(line)
        responses[response["id"]] = response
    assert sorted(responses) == [1, 2, 3, 4]
    assert all(response["ok"] for response in responses.values()), responses
    # The noise happened, on stderr; the wire stats split LP and MIP runs.
    assert "raw bytes on fd 1" in proc.stderr
    assert "HighsMipSolverData" in proc.stderr
    stats = responses[1]["result"]["stats"]
    assert stats["lp_solves"] >= 1 and stats["mip_solves"] == 0
