"""The measured operations of one benchmark run.

An operation is one `emoforge train`, one request (decode a held-out clip and
call ``predict_example``), or the accuracy check. An operation fails on a
non-zero CLI exit, a raised exception or a failed correctness check.

A training is timed twice: in wall time, what a user waits for, and in the
process's CPU time, summed over the feature threads. A request and the set-up
steps are timed in their thread's CPU time. Every timed figure is normalised
by the reference kernel of ``speed.py``, timed on the same thread at the same
time: during a training by a sampler every 0.1 s, otherwise just before. On a
host whose virtual CPUs are shared, the same work takes up to twice as long
from one moment to the next, and that dominated the run-to-run spread (see
README.md). Raw times are kept in the run's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from emoforge import audio_io, cli, metrics, pipeline
from emoforge.ingest import ManifestEntry

import spans
from speed import KERNEL_S, Sampler, current_kernel
from workloads import Workload, prepare

MIN_UNITS = 2  # two trainings also give the byte-identity check
MIN_REQUESTS = 200  # so that at least ten samples lie beyond the predict p95
ARTIFACTS = ("model.emf", "report.json")


def median(values):
    return statistics.median(values) if values else float("nan")


def p95(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] if ordered else float("nan")


def import_seconds(src: Path) -> float:
    """CPU time of `import emoforge` in a fresh interpreter, its start-up
    excluded, normalised by the kernel timed in that interpreter after it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
        "import emoforge; t = time.process_time() - t; sys.path.insert(0, sys.argv[2]); "
        "import speed; print(t, speed.current_kernel(5))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(Path(__file__).parent)],
        capture_output=True, text=True, check=True,
    )
    seconds, kernel = map(float, done.stdout.split())
    return seconds * KERNEL_S / kernel


def source_digest(src: Path) -> str:
    """Short digest of the program's sources, so that recorded artifact
    digests are compared only against the same program."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


class Bench:
    """One invocation: a workload, a seed, a time budget and a trace flag."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 src: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = src
        self.tag = f"{workload.name}-s{seed}-trace{int(trace)}"
        self.inputs = prepare(workload, seed, work / "inputs")
        # artifact digests of this program on these inputs, kept across runs
        self.digests = (work / "digests"
                        / f"{self.inputs.manifest.parent.name}-src{source_digest(src)}.json")
        self.out = work / "runs" / self.tag
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted = 0
        self.failed = 0
        self.reference: Path | None = None  # output directory of the first good training
        self.expected: list[str] | None = None  # ModelBundle.predict on the held-out rows
        # untraced, in seconds: (CPU, wall, kernel CPU at the time)
        self.train: list[tuple[float, float, float]] = []
        self.requests: list[tuple[float, float, float]] = []
        self.imports: list[float] = []
        self.loads: list[float] = []
        self.unit_cpu: dict[bool, list[float]] = {False: [], True: []}
        self.units: list[spans.Tracer] = []  # traced repeated units
        # each traced unit's (training CPU or None, CPU of its requests) seconds
        self.phase_cpu: list[tuple[float | None, float]] = []
        self.notes: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    @staticmethod
    @contextlib.contextmanager
    def traced(tracer: spans.Tracer | None):
        if tracer is None:
            yield
        else:
            with tracer.installed():
                yield

    # --- operations -----------------------------------------------------------

    def train_once(self, index: int, tracer=None) -> tuple[float, float, float] | None:
        """One `emoforge train`; checks exit code and byte identity. Returns
        its (CPU, wall, kernel CPU) seconds, or None when it failed. An
        untraced training is sampled for the kernel; a traced one is not, and
        its kernel reads NaN."""
        out = self.out / f"train{index}"
        argv = [
            "train", "--manifest", str(self.inputs.manifest), "--model", self.w.model,
            "--setting", self.w.setting, "--classes", str(self.w.classes),
            "--seed", str(self.seed), "--out", str(out), *self.w.train_args,
        ]
        self.attempted += 1
        if tracer is not None:
            tracer.request = spans.TRAINING
        sampler = Sampler()
        try:
            with (
                self.traced(tracer),
                contextlib.redirect_stdout(io.StringIO()),
                sampler.active() if tracer is None else contextlib.nullcontext(),
            ):
                wall, cpu = time.perf_counter(), time.process_time()
                code = cli.main(argv)
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            cpu -= sampler.overhead_cpu
            wall -= sampler.overhead_wall
            kernel = sampler.kernel() if tracer is None else float("nan")
        except Exception:
            traceback.print_exc()
            self.fail(f"train {index} raised")
            return None
        finally:
            if tracer is not None:
                tracer.request = -1
        if code != 0:
            self.fail(f"train {index} exited with {code}")
            return None
        if self.reference is None:
            if not self.same_as_earlier_runs(out):
                return None
            self.reference = out
            return cpu, wall, kernel
        for name in ARTIFACTS:
            if (out / name).read_bytes() != (self.reference / name).read_bytes():
                self.fail(f"train {index}: {name} differs from the first training")
                return None
        shutil.rmtree(out)
        return cpu, wall, kernel

    def same_as_earlier_runs(self, out: Path) -> bool:
        """Compare a training's artifacts with the digests that an earlier
        process recorded for the same program and inputs, or record them.
        This catches nondeterminism that differs between processes."""
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
        if self.digests.is_file():
            earlier = json.loads(self.digests.read_text("utf-8"))
            differ = [name for name in ARTIFACTS if digests[name] != earlier.get(name)]
            if differ:
                self.fail(f"artifacts differ from an earlier run's on the same inputs: "
                          f"{', '.join(differ)}")
                return False
            return True
        self.digests.parent.mkdir(parents=True, exist_ok=True)
        staging = self.digests.with_suffix(f".{os.getpid()}")
        staging.write_text(json.dumps(digests), "utf-8")
        staging.replace(self.digests)
        return True

    def load(self):
        return pipeline.load_bundle(self.reference / "model.emf")

    def expected_labels(self, bundle) -> list[str]:
        """ModelBundle.predict on the held-out rows, with batch features."""
        entries = [ManifestEntry(r["audio"], r["text"], r["label"]) for r in self.inputs.test]
        data = pipeline.build_dataset(entries, bundle.class_mode)
        if bundle.input_mode == "frames":
            X = pipeline.frame_sequences(data, bundle.frame_config, bundle.l_harm)
        else:
            blocks = []
            if bundle.setting in ("audio_only", "audio_text"):
                blocks.append(pipeline.audio_feature_matrix(data, bundle.frame_config, bundle.l_harm))
            if bundle.setting in ("text_only", "audio_text"):
                blocks.append(pipeline.text_feature_matrix(data, bundle.vocab))
            X = blocks[0] if len(blocks) == 1 else pipeline.fused_matrix(*blocks, bundle.vocab)
        return [bundle.class_names[i] for i in bundle.predict(X)]

    def stream(self, bundle, tracer=None, labels=None) -> list[tuple[float, float, float]]:
        """One closed-loop pass with one client over the held-out clips; each
        label is checked against ModelBundle.predict on the same row. Returns
        (CPU, wall, kernel CPU) seconds per request; the kernel runs just
        before the request. Appends the labels to ``labels``."""
        text_needed = bundle.setting in ("text_only", "audio_text")
        times = []
        with self.traced(tracer):
            for i, row in enumerate(self.inputs.test):
                self.attempted += 1
                if tracer is not None:
                    tracer.request = i
                label = None
                try:
                    kernel = current_kernel()
                    wall, cpu = time.perf_counter(), time.thread_time()
                    clip = audio_io.decode_wav(row["audio"])
                    label, _ = pipeline.predict_example(
                        bundle, clip=clip, text=row["text"] if text_needed else None
                    )
                    times.append(
                        (time.thread_time() - cpu, time.perf_counter() - wall, kernel))
                except Exception:
                    traceback.print_exc()
                    self.fail(f"request {i} raised")
                if label is not None and label != self.expected[i]:
                    self.fail(f"request {i}: predict_example gave {label}, "
                              f"ModelBundle.predict {self.expected[i]}")
                if labels is not None:
                    labels.append(label)
            if tracer is not None:
                tracer.request = -1
        return times

    def accuracy_check(self, accuracy: float) -> None:
        self.attempted += 1
        if not accuracy >= self.w.accuracy_floor:
            self.fail(f"test accuracy {accuracy:.4f} below the floor {self.w.accuracy_floor}")

    def sample_setup(self, imports: int, load: bool) -> None:
        """Set-up samples, spread over the run so they see the same host."""
        if self.trace:
            return
        self.imports += [import_seconds(self.src) for _ in range(imports)]
        if load:
            kernel = current_kernel()
            cpu = time.thread_time()
            self.load()
            self.loads.append((time.thread_time() - cpu) * KERNEL_S / kernel)

    def keep_going(self, start: float, done: int) -> bool:
        """Another unit starts while it is expected to end within the run's
        seconds, give or take half a unit. A traced run needs one unit more,
        because its first unit only warms up."""
        elapsed = time.perf_counter() - start
        least = MIN_UNITS + 1 if self.trace else MIN_UNITS
        return done < least or elapsed + 0.5 * elapsed / done < self.seconds

    def record(self, n: int, traced: bool, cpu: float, train=None, requests=None) -> None:
        """Keep a unit's figures. Untraced units give the end-to-end samples;
        every unit but a traced run's first, untraced and cold, gives the
        tracing overhead."""
        if not (self.trace and n == 0):
            self.unit_cpu[traced].append(cpu)
        if traced:
            return
        if train is not None:
            self.train.append(train)
        if requests is not None:
            self.requests += requests

    # --- workloads -------------------------------------------------------------

    def run_train(self) -> dict:
        """Units of (train, load, one serving pass) for the run's seconds;
        in a traced run every second unit, from the second on, is traced."""
        start = time.perf_counter()
        n = 0
        while self.keep_going(start, n):
            traced = self.trace and n % 2 == 1
            tracer = spans.Tracer() if traced else None
            self.sample_setup(imports=2, load=False)
            timed = self.train_once(n, tracer)
            n += 1
            if timed is None:
                continue
            if self.expected is None:
                self.expected = self.expected_labels(self.load())
            with self.traced(tracer):
                bundle = self.load()
            requests = self.stream(bundle, tracer)
            self.record(n - 1, traced, timed[0], timed, requests)
            if tracer is not None:
                self.units.append(tracer)
                self.phase_cpu.append((timed[0], sum(r[0] for r in requests)))
        self.sample_setup(imports=2, load=False)
        if self.reference is None:
            return {}
        report = json.loads((self.reference / "report.json").read_text("utf-8"))
        self.accuracy_check(report["accuracy"])
        self.notes["train"] = f"median of {len(self.train)} untraced trainings"
        self.notes["predict"] = (f"{len(self.requests)} untraced requests, one pass over "
                                 f"{len(self.inputs.test)} held-out clips after each training")
        return self.end_to_end(report["accuracy"], report["macro_f1"])

    def train_served(self) -> dict:
        """The child process of the predict workload: train the served bundle
        MIN_UNITS times, untraced, and return what the parent needs."""
        for index in range(MIN_UNITS):
            timed = self.train_once(index)
            if timed is not None:
                self.train.append(timed)
        return {
            "train": self.train,
            "attempted": self.attempted,
            "failed": self.failed,
            "reference": str(self.reference) if self.reference else None,
        }

    def train_in_child(self) -> None:
        """Run train_served in a child process, so that this process's peak
        memory is that of serving alone."""
        argv = [sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", self.w.name, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--trace", str(int(self.trace)), "--train-only"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        try:
            child = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.attempted += MIN_UNITS
            self.fail(f"the training child exited with {done.returncode} and no result")
            return
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.train = [tuple(timed) for timed in child["train"]]
        self.reference = Path(child["reference"]) if child["reference"] else None

    def run_predict(self) -> dict:
        """Train the served bundle twice in a child process while preparing,
        then closed-loop passes over the held-out clips for the run's seconds;
        in a traced run every second pass, from the second on, is traced,
        together with a bundle load."""
        self.train_in_child()
        if self.reference is None:
            return {}
        bundle = self.load()
        self.expected = self.expected_labels(bundle)
        first: list[str | None] = []
        start = time.perf_counter()
        n = 0
        while self.keep_going(start, n) or (
                not self.trace and len(self.requests) < MIN_REQUESTS):
            traced = self.trace and n % 2 == 1
            tracer = spans.Tracer() if traced else None
            if tracer is not None:
                with self.traced(tracer):
                    bundle = self.load()
            self.sample_setup(imports=1, load=True)
            labels: list[str | None] = []
            requests = self.stream(bundle, tracer, labels)
            self.record(n, traced, sum(r[0] for r in requests), requests=requests)
            if tracer is not None:
                self.units.append(tracer)
                self.phase_cpu.append((None, sum(r[0] for r in requests)))
            first = first or labels
            n += 1
        names = bundle.class_names
        pairs = [(names.index(r["label"]), names.index(p))
                 for r, p in zip(self.inputs.test, first) if p is not None]
        truth, predicted = (np.array(v) for v in zip(*pairs))
        report = metrics.evaluate(predicted, truth, len(names), names)
        self.accuracy_check(report.accuracy)
        self.notes["train"] = (f"median of {len(self.train)} trainings of the served bundle, "
                               "in a child process while preparing")
        self.notes["predict"] = (f"{len(self.requests)} untraced requests in {n} passes "
                                 f"over {len(self.inputs.test)} held-out clips")
        return self.end_to_end(report.accuracy, report.macro_f1)

    def end_to_end(self, accuracy: float, macro_f1: float) -> dict:
        if self.trace:
            return {}

        def norm(index, timed):
            # the host's speed at the time cancels out of each ratio
            return [t[index] * KERNEL_S / t[2] for t in timed]

        request_ms = [1000 * r for r in norm(0, self.requests)]
        self.notes["setup"] = f"median of {len(self.imports)} imports" + (
            f" + median of {len(self.loads)} load_bundle" if self.loads else "")
        self.notes["raw"] = (
            f"training wall/CPU {median([t[1] for t in self.train]):.3f}/"
            f"{median([t[0] for t in self.train]):.3f} s, kernel "
            f"{1000 * median([t[2] for t in self.train + self.requests]):.3f} ms; request CPU "
            f"p50/p95 {1000 * median([r[0] for r in self.requests]):.2f}/"
            f"{1000 * p95([r[0] for r in self.requests]):.2f} ms, wall p50/p95 "
            f"{1000 * median([r[1] for r in self.requests]):.2f}/"
            f"{1000 * p95([r[1] for r in self.requests]):.2f} ms")
        return {
            "setup_s": median(self.imports) + (median(self.loads) if self.loads else 0.0),
            "train_s": median(norm(1, self.train)),
            "train_cpu_s": median(norm(0, self.train)),
            "predict_p50_ms": median(request_ms),
            "predict_p95_ms": p95(request_ms),
            "test_accuracy": accuracy,
            "test_macro_f1": macro_f1,
        }

    def run(self) -> dict:
        return self.run_train() if self.w.kind == "train" else self.run_predict()

    # --- traced run -------------------------------------------------------------

    def layer_metrics(self, threads: int) -> tuple[dict, list]:
        """Median over traced units of each unit's metrics, plus the tracing
        overhead; also notes each layer's share of the CPU time of the traced
        trainings and of the traced requests."""
        per_unit = [spans.layer_metrics(t.spans, t.counters, threads) for t in self.units]
        if not per_unit:
            per_unit = [spans.layer_metrics([], Counter(), threads)]
        # median_low keeps counts whole: it picks one of the units' values
        result = {k: statistics.median_low([u[k] for u in per_unit]) for k in per_unit[0]}
        untraced, traced = self.unit_cpu[False], self.unit_cpu[True]
        result["trace.overhead_frac"] = (
            median(traced) / median(untraced) - 1.0 if traced and untraced else float("nan"))
        phases = {
            "train": lambda span: span[spans.REQUEST] == spans.TRAINING,
            "serve": lambda span: span[spans.REQUEST] >= 0,
        }
        for k, (phase, keep) in enumerate(phases.items()):
            pairs = [(spans.self_cpu(t.spans, keep), cpu[k])
                     for t, cpu in zip(self.units, self.phase_cpu) if cpu[k]]
            if pairs:
                self.notes[f"{phase} shares"] = ", ".join(
                    f"{layer} {median([own[layer] / cpu for own, cpu in pairs]):.3f}"
                    for layer in spans.LAYERS
                ) + f" of {median([cpu for _, cpu in pairs]):.3f} s CPU (median of {len(pairs)})"
        dump = []
        for n, tracer in enumerate(self.units):
            dump += [[f"unit{n}", s] for s in tracer.spans]
        return result, dump
