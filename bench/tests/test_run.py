"""A traced run reports only the layers its workload reaches."""

import json

import run


def test_solve_oracle_trace_leaves_out_layers_it_never_reaches(capsys):
    assert run.main(["--workload", "solve-oracle", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = [line.split()[0] for line in lines[1:-2]]
    record = json.loads(lines[-2][len("run_record "):])
    result = json.loads(lines[-1])

    assert "bsgs.steps" in table and "groups.encode.calls" in table
    for name in table + record["not_reached"]:
        assert name in result["metrics"]
    unreached = [name for name in result["metrics"]
                 if name.startswith(("parallel.", "cli.", "probability."))]
    assert unreached and set(unreached) <= set(record["not_reached"])
    assert not set(unreached) & set(table)
    assert len(table) + len(record["not_reached"]) == len(run.PER_LAYER)
    assert result["correct"] and record["nesting_errors"] == 0
