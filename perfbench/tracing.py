"""In-memory spans around lexfit's public functions, and per-layer metrics from them.

Each target is wrapped at the attribute its caller looks it up through (for
example ``lexfit.cli.load_embeddings``, not ``lexfit.embeddings``), so a
wrapper sees exactly the calls the program makes. A target that a later
version of the program removes or renames is recorded as absent and skipped.
Spans are kept in a list and written out once, when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)} if isinstance(path, str) and os.path.isfile(path) else {}


def _count_load(args, kwargs, result):
    return _file_bytes(_arg(args, kwargs, 0, "path"))


def _count_save(args, kwargs, result):
    return _file_bytes(_arg(args, kwargs, 1, "path"))


def _count_added(args, kwargs, result):
    return {"added": getattr(result, "added", 0)}


def _count_len(key):
    def count(args, kwargs, result):
        return {key: len(result)} if hasattr(result, "__len__") else {}
    return count


def _count_empty(args, kwargs, result):
    return {"empty": int(not result)}


def _count_hinges(args, kwargs, result):
    return {"hinges": getattr(result, "n_hinges", 0), "active": getattr(result, "n_active", 0)}


def _count_rows(args, kwargs, result):
    grads = _arg(args, kwargs, 2, "grads")
    return {"rows": len(grads)} if hasattr(grads, "__len__") else {}


KERNELS = ("contrastive_loss", "triplet_attract_loss", "hypernym_triplet_loss",
           "triplet_repel_loss", "quadruplet_hierarchy_loss", "asymmetric_norm_loss",
           "distance_with_grads")
PRESERVERS = ("preservation_loss", "attract_repel_reg_loss", "counterfit_preserve_loss")
EVAL_PROTOCOLS = {"sim": "eval_similarity", "hyperlex": "hyperlex_eval",
                  "bless": "bless_directionality", "wbless": "wbless_classify",
                  "bibless": "bibless_classify"}

# (span name, "module:attribute path", counter or None)
TARGETS = (
    ("cli.main", "lexfit.cli:main", None),
    ("embeddings.load", "lexfit.cli:load_embeddings", _count_load),
    ("embeddings.save", "lexfit.cli:save_embeddings", _count_save),
    ("embeddings.nearest", "lexfit.specializer:nearest_neighbors", None),
    ("constraints.load_pairs", "lexfit.cli:load_pairs", _count_added),
    ("constraints.closure", "lexfit.constraints:ConstraintSet.compute_closure",
     _count_len("pairs")),
    ("specializer.specialize", "lexfit.cli:specialize", None),
    ("specializer.neighbor_precompute", "lexfit.specializer:_original_neighbor_sets", None),
    ("specializer.update", "lexfit.specializer:adagrad_step", _count_rows),
    ("sampling.plan", "lexfit.specializer:plan_epoch", _count_len("batches")),
    ("sampling.mine", "lexfit.specializer:select_negatives", _count_empty),
    ("sampling.mine", "lexfit.sampling:select_negatives", _count_empty),
    ("sampling.mine", "lexfit.sampling:select_positives", _count_empty),
    *((f"losses.kernel.{k}", f"lexfit.specializer:{k}", _count_hinges) for k in KERNELS),
    *((f"losses.preserve.{k}", f"lexfit.specializer:{k}", _count_hinges) for k in PRESERVERS),
    ("evaluate.dataset_load", "lexfit.cli:load_similarity_dataset", None),
    ("evaluate.dataset_load", "lexfit.cli:load_relation_dataset", None),
    *((f"evaluate.{task}", f"lexfit.cli:{fn}", None) for task, fn in EVAL_PROTOCOLS.items()),
)

NEAREST_TARGETS = (("embeddings.nearest", "lexfit.embeddings:nearest_neighbors", None),)


class Tracer:
    """Records one span per call of every installed target, for one command."""

    def __init__(self, command: str):
        self.command = command
        # [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for name, target, counter in targets:
            if not self._wrap(name, target, counter):
                self.absent.append(target)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, target: str, counter) -> bool:
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = _safe_count(counter, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))
        return True

    def to_dict(self) -> dict:
        return {"command": self.command, "absent": self.absent, "spans": self.spans}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def _safe_count(counter, args, kwargs, result) -> dict | None:
    # a later signature change must cost the count, not the run
    try:
        return counter(args, kwargs, result)
    except (TypeError, AttributeError, IndexError, KeyError, OSError):
        return None


PER_LAYER_UNITS = {
    "embeddings.load_s": "s",
    "embeddings.load_calls": "count",
    "embeddings.load_mb_per_s": "MB/s",
    "embeddings.save_s": "s",
    "embeddings.save_bytes": "bytes",
    "embeddings.nearest_s": "s",
    "embeddings.nearest_calls": "count",
    "constraints.load_pairs_s": "s",
    "constraints.pairs_added": "count",
    "constraints.closure_s": "s",
    "constraints.closure_pairs": "count",
    "sampling.plan_s": "s",
    "sampling.batches": "count",
    "sampling.mine_s": "s",
    "sampling.mine_calls": "count",
    "sampling.empty_pool_ratio": "ratio",
    "losses.kernel_s": "s",
    "losses.kernel_calls": "count",
    "losses.hinges": "count",
    "losses.active_ratio": "ratio",
    "losses.preserve_s": "s",
    "specializer.train_s": "s",
    "specializer.self_s": "s",
    "specializer.update_s": "s",
    "specializer.update_calls": "count",
    "specializer.rows_updated": "count",
    "specializer.neighbor_precompute_s": "s",
    "evaluate.dataset_load_s": "s",
    **{f"evaluate.{task}_s": "s" for task in EVAL_PROTOCOLS},
    "cli.specialize_self_s": "s",
    "cli.eval_self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer totals over the span dumps of one benchmark iteration.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded calls nest, so children never overlap.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    cli_self: dict[str, float] = defaultdict(float)
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        kind = "specialize" if doc["command"].endswith("specialize") else "eval"
        for i, (name, start, end, parent, span_counts) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child[i]
            if name == "cli.main":
                cli_self[kind] += end - start - child[i]
            for key, value in (span_counts or {}).items():
                counts[f"{name}.{key}"] += value

    def group(prefix: str, field: dict, suffix: str = "") -> float:
        return sum(v for k, v in field.items() if k.startswith(prefix) and k.endswith(suffix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hinges = group("losses.", counts, ".hinges")
    out = {
        "embeddings.load_s": total["embeddings.load"],
        "embeddings.load_calls": calls["embeddings.load"],
        "embeddings.load_mb_per_s": ratio(counts["embeddings.load.bytes"] / 1e6,
                                          total["embeddings.load"]),
        "embeddings.save_s": total["embeddings.save"],
        "embeddings.save_bytes": counts["embeddings.save.bytes"],
        "embeddings.nearest_s": total["embeddings.nearest"],
        "embeddings.nearest_calls": calls["embeddings.nearest"],
        "constraints.load_pairs_s": total["constraints.load_pairs"],
        "constraints.pairs_added": counts["constraints.load_pairs.added"],
        "constraints.closure_s": total["constraints.closure"],
        "constraints.closure_pairs": counts["constraints.closure.pairs"],
        "sampling.plan_s": total["sampling.plan"],
        "sampling.batches": counts["sampling.plan.batches"],
        "sampling.mine_s": total["sampling.mine"],
        "sampling.mine_calls": calls["sampling.mine"],
        "sampling.empty_pool_ratio": ratio(counts["sampling.mine.empty"], calls["sampling.mine"]),
        "losses.kernel_s": group("losses.kernel.", total),
        "losses.kernel_calls": group("losses.kernel.", calls),
        "losses.hinges": hinges,
        "losses.active_ratio": ratio(group("losses.", counts, ".active"), hinges),
        "losses.preserve_s": group("losses.preserve.", total),
        "specializer.train_s": total["specializer.specialize"],
        "specializer.self_s": self_time["specializer.specialize"],
        "specializer.update_s": total["specializer.update"],
        "specializer.update_calls": calls["specializer.update"],
        "specializer.rows_updated": counts["specializer.update.rows"],
        "specializer.neighbor_precompute_s": total["specializer.neighbor_precompute"],
        "evaluate.dataset_load_s": total["evaluate.dataset_load"],
        **{f"evaluate.{task}_s": total[f"evaluate.{task}"] for task in EVAL_PROTOCOLS},
        "cli.specialize_self_s": cli_self["specialize"],
        "cli.eval_self_s": cli_self["eval"],
    }
    return {k: float(v) for k, v in out.items()}
