"""The measured process: run wwae commands in-process under the tracer.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the mode (train, gradcheck or eval), the wwae command lines and
how often to run them, the result path and whether to trace layers. The
workload's operation is always timed: models.train_step for train,
models.loss_and_grads for gradcheck and one round of commands for eval.
With tracing on, every function in tracing.TRACED is wrapped as well. Every
command runs even after one has failed, so that a failed check's report is
still there to read. The result JSON is written when the commands are done;
the exit code is the first non-zero command exit code.
"""

import importlib
import json
import sys
from pathlib import Path

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(SRC))
    from wwae import cli, models

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: wwae imported from {cli.__file__}, not {SRC}")

    mode = spec["mode"]
    tracer = tracing.Tracer(spec["trace"], frozenset(spec["alloc_probe"]))
    op_attr = {"train": "train_step", "gradcheck": "loss_and_grads"}.get(mode)
    if spec["trace"]:
        for module, attr, name in tracing.TRACED + (tracing.BATCHES,):
            if module == "models" and attr == op_attr:
                continue
            target = importlib.import_module(f"wwae.{module}")
            fn = getattr(target, attr, None)
            if fn is None:  # a function a later change removed reads 0
                continue
            wrap = tracer.wrap_stream if (module, attr, name) == tracing.BATCHES else tracer.wrap
            setattr(target, attr, wrap(fn, name))
    if op_attr is not None:
        fn = getattr(models, op_attr)
        setattr(models, op_attr, tracer.wrap_op(fn, f"models.{op_attr}"))

    rc = 0
    if mode == "eval":

        def one_round() -> int:
            for argv in spec["commands"]:
                code = cli.main(argv)
                if code:
                    return code
            return 0

        run_round = tracer.wrap_op(one_round, tracing.ROUND)
        for _ in range(spec["rounds"]):
            rc = run_round()
            if rc:
                break
    else:
        for _ in range(spec["repeat"]):
            code = cli.main(spec["argv"])
            rc = rc or code

    result = tracer.result()
    result["rc"] = rc
    Path(spec["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
