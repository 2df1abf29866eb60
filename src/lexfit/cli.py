"""Command-line front end: specialize, eval, and nearest subcommands.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Option precedence is command line > ``--config`` key=value file > built-in
defaults. Every specialization run writes a manifest alongside its output;
replaying the manifest reproduces the output byte-exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import pathlib
import sys
import typing

from . import __version__
from .constraints import PAIR_SETS, RELATIONS, ConstraintSet, load_pairs
from .embeddings import (
    FORMATS,
    _sha256,
    backoff_lookup,
    load_embeddings,
    nearest_neighbors,
    publish,
    save_embeddings,
)
from .evaluate import (
    bibless_classify,
    bless_directionality,
    eval_similarity,
    hyperlex_eval,
    load_relation_dataset,
    load_similarity_dataset,
    wbless_classify,
)
from .losses import Margins
from .specializer import (
    PRESET_TABLE,
    PRESETS,
    NonFiniteGradientError,
    SpecializeConfig,
    missing_relations,
    specialize,
)

# task: (dataset loader, protocol, whether it takes --seed). The names are
# looked up in this module at each call, so a wrapper set on one (as
# perfbench/tracing.py sets them) sees the call.
_EVAL_TASKS = {
    "sim": ("load_similarity_dataset", "eval_similarity", False),
    "bless": ("load_relation_dataset", "bless_directionality", False),
    "wbless": ("load_relation_dataset", "wbless_classify", True),
    "bibless": ("load_relation_dataset", "bibless_classify", True),
    "hyperlex": ("load_similarity_dataset", "hyperlex_eval", False),
}


# The manifest records every field with a plain default but the nested
# margins, whose own fields it records; the preset, which the method names,
# has no default.
_RECORDED = [
    f for cls in (SpecializeConfig, Margins) for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING and f.name != "margins"
]
_RECORDED_TYPES = {f.name: type(f.default) for f in _RECORDED}
# every training option: each is a flag and a config-file key
_OPTION_DEFAULTS = {f.name: f.default for f in _RECORDED if f.init}
# every recorded field that is not an option, at the one value a run takes
_FIXED = {f.name: f.default for f in _RECORDED if not f.init}
_MARGIN_FIELDS = [f.name for f in dataclasses.fields(Margins)]

# config-file keys and how to coerce their values
_CONFIG_CASTERS = {
    "method": str,
    "format": str,
    **{name: type(default) for name, default in _OPTION_DEFAULTS.items()},
}


@dataclasses.dataclass
class RunManifest:
    """Everything needed to reproduce one specialization run byte-exactly."""

    tool_version: str
    seed: int
    method: str
    format: str
    config: dict
    # one {role, order, path, sha256} entry per input, so one path may serve two roles
    inputs: list[dict]
    output: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "manifest") -> "RunManifest":
        """Read a manifest, also one whose inputs are keyed by path; a malformed
        one raises ``ValueError`` naming ``source`` and the field at fault."""
        try:
            fields = json.loads(text)
            if isinstance(fields, dict) and isinstance(fields.get("inputs"), dict):
                # older manifests key the inputs by path, one role per path
                fields["inputs"] = [{"path": path, "order": 0, **meta} if isinstance(meta, dict)
                                    else meta for path, meta in fields["inputs"].items()]
            hints = typing.get_type_hints(cls)
            _check_fields(fields, {name: typing.get_origin(t) or t for name, t in hints.items()})
            for name, kind in _RECORDED_TYPES.items():  # other config keys are ignored
                if name not in fields["config"]:
                    continue
                value = fields["config"][name]
                if not _is_a(value, kind):
                    raise ValueError(f"field 'config.{name}' is not of type {kind.__name__}")
                try:
                    kind(value)
                except OverflowError:  # a JSON integer that no float holds
                    raise ValueError(f"field 'config.{name}' is beyond float range") from None
                if name in _FIXED and value != _FIXED[name]:  # a value no run can take
                    raise ValueError(f"field 'config.{name}' is {value!r}, "
                                     f"but this version trains only at {_FIXED[name]!r}")
            # a config without a seed ran at the recorded one
            if fields["config"].setdefault("seed", fields["seed"]) != fields["seed"]:
                raise ValueError(f"field 'seed' is {fields['seed']}, "
                                 f"but field 'config.seed' is {fields['config']['seed']}")
            for i, entry in enumerate(fields["inputs"]):
                _check_fields(entry, _INPUT_FIELDS, f"inputs[{i}]: ")
                if entry["role"] not in ("embeddings", *RELATIONS):
                    raise ValueError(f"inputs[{i}] has unknown role {entry['role']!r}")
            count = sum(entry["role"] == "embeddings" for entry in fields["inputs"])
            if count != 1:  # a run loads one vector file
                raise ValueError("inputs has no 'embeddings' entry" if not count
                                 else f"inputs has {count} 'embeddings' entries")
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from exc
        return cls(**fields)


# the keys of one manifest input and their types
_INPUT_FIELDS = {"role": str, "order": int, "path": str, "sha256": str}


def _check_fields(fields, kinds: dict, where: str = "") -> None:
    """Refuse ``fields`` unless it is an object with exactly the keys of ``kinds``,
    each holding a value of its type."""
    if not isinstance(fields, dict):
        raise ValueError(f"{where}expected a JSON object, got {type(fields).__name__}")
    unknown = sorted(set(fields) - set(kinds))
    if unknown:
        raise ValueError(f"{where}field {unknown[0]!r} is unknown")
    for name, kind in kinds.items():
        if not _is_a(fields.get(name), kind):
            problem = "missing" if name not in fields else f"not of type {kind.__name__}"
            raise ValueError(f"{where}field {name!r} is {problem}")


def _is_a(value, kind: type) -> bool:
    """Whether a JSON ``value`` is of ``kind``; a bool never is, an int is also a float."""
    kinds = (kind, int) if kind is float else kind
    return isinstance(value, kinds) and not isinstance(value, bool)


def _read_config_file(path: str) -> dict:
    """Parse a key=value options file; unknown keys are usage errors."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_CASTERS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            cast, value = _CONFIG_CASTERS[key], value.strip()
            try:
                values[key] = cast(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} expects {cast.__name__}, got {value!r}"
                ) from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexfit",
        description="Specialize word embeddings with lexical constraints and evaluate them.",
    )
    parser.add_argument("--version", action="version", version=f"lexfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specialize", help="train a specialization preset and save the result")
    sp.add_argument("--embeddings", help="input embedding file")
    sp.add_argument("--format", choices=FORMATS, help="embedding text format")
    sp.add_argument(
        "--method",
        choices=[p.replace("_", "-") for p in PRESETS],
        help="specialization preset",
    )
    sp.add_argument("--syn", action="append", default=[], help="synonym pair file (repeatable)")
    sp.add_argument("--ant", action="append", default=[], help="antonym pair file (repeatable)")
    sp.add_argument(
        "--hyper", action="append", default=[], help="direct-hypernym pair file (repeatable)"
    )
    sp.add_argument("--out", help="output embedding file")
    sp.add_argument("--config", help="key=value options file (overridden by flags)")
    sp.add_argument("--replay", help="manifest file to reproduce (other flags may override)")
    for name, default in _OPTION_DEFAULTS.items():
        # a margin default differs by method where a preset sets its own
        own = [f"{preset.replace('_', '-')} {getattr(spec.margins, name)}"
               for preset, spec in PRESET_TABLE.items()
               if getattr(spec.margins, name, default) != default]
        sp.add_argument(
            f"--{name.replace('_', '-')}", type=type(default), dest=name,
            help="; ".join([f"default {default}", *own]),
        )
    sp.set_defaults(func=cmd_specialize)

    ev = sub.add_parser("eval", help="evaluate embeddings on an intrinsic task")
    ev.add_argument("--embeddings", required=True)
    ev.add_argument("--format", choices=FORMATS, default="glove-text")
    ev.add_argument("--task", required=True, choices=tuple(_EVAL_TASKS))
    ev.add_argument("--dataset", required=True, help="TSV dataset file")
    ev.add_argument("--backoff", action="store_true", help="resolve OOV words by end truncation")
    ev.add_argument("--seed", type=int, default=SpecializeConfig.seed)
    ev.add_argument("--out", help="write the report as TSV to this path")
    ev.set_defaults(func=cmd_eval)

    nn = sub.add_parser("nearest", help="print the nearest neighbors of a word")
    nn.add_argument("--embeddings", required=True)
    nn.add_argument("--format", choices=FORMATS, default="glove-text")
    nn.add_argument("--word", required=True)
    nn.add_argument("--k", type=int, default=10)
    nn.set_defaults(func=cmd_nearest)
    return parser


def _resolve_specialize_options(args) -> dict:
    """Layer replayed manifest, config file, and flags, in that order.

    An option none of them sets is left out and keeps its dataclass default. ``inputs``
    holds the manifest entries in load order; a role named by a flag holds its files, undigested.
    """
    options, replayed = {}, []
    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            manifest = RunManifest.from_json(fh.read(), args.replay)
        options.update(manifest.config)
        options["method"] = manifest.method
        options["format"] = manifest.format
        options.setdefault("out", manifest.output)
        replayed = sorted(manifest.inputs, key=lambda entry: entry["order"])
    if args.config:
        options.update(_read_config_file(args.config))
    for key in ("format", "method", "out", *_OPTION_DEFAULTS):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    flagged = {"embeddings": [] if args.embeddings is None else [args.embeddings],
               **{relation: getattr(args, relation) for relation in RELATIONS}}
    options["inputs"] = []
    for role, paths in flagged.items():
        files = ([(path, None) for path in paths] if paths else
                 [(entry["path"], entry["sha256"]) for entry in replayed if entry["role"] == role])
        options["inputs"] += [{"role": role, "order": order, "path": path, "sha256": digest}
                              for order, (path, digest) in enumerate(files)]
    return options


class UsageError(ValueError):
    """A fault in a command's arguments or options, found before any input is
    loaded; :func:`main` exits 2 for it."""


# glibc's mallopt parameters (malloc.h), and the one value specialize gives both
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_THRESHOLD = 32 << 20


def _keep_heap() -> None:
    """Have glibc keep freed heap memory for the rest of the process.

    A batch's scratch arrays are freed at its end. Left to itself, glibc hands
    the heap's free top back to the kernel, and serves blocks above a threshold
    it adapts with mappings of their own, so the next batch faults the same
    pages in again. Fixed thresholds keep blocks under 32 MiB in the heap, and
    its free top until that passes 32 MiB; at 60k words a 16 MiB mmap threshold
    still mapped the counter-fitting precompute's blocks afresh each time. The
    trim threshold is set only after the mmap threshold took: set alone, it
    pins the mmap threshold at glibc's 128 KiB start. Elsewhere than glibc,
    nothing is set.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD):
            mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)
    except (AttributeError, OSError, TypeError, ValueError):
        pass  # no confstr name, no C library handle, or no mallopt: the default policy stays


def cmd_specialize(args) -> int:
    try:  # a fault found before any input is loaded is a usage error
        options = _resolve_specialize_options(args)
        inputs = options["inputs"]
        paths = {entry["role"]: entry["path"] for entry in inputs}  # a path per role given
        for key in ("embeddings", "format", "method", "out"):
            if not (paths if key == "embeddings" else options).get(key):
                raise ValueError(f"--{key} is required")
        method = options["method"].replace("-", "_")
        if method not in PRESETS:
            raise ValueError(f"unknown method {options['method']!r}")
        if options["format"] not in FORMATS:
            raise ValueError(f"unknown format {options['format']!r}")
        given = [relation for relation in RELATIONS if relation in paths]
        if not given:
            raise ValueError("at least one of --syn/--ant/--hyper is required")
        missing = missing_relations(method, given)
        if missing:
            names = " or ".join(f"--{rel}" for rel in missing[0])
            relation = PAIR_SETS[missing[0][0]].replace("_", " ")
            raise ValueError(f"method {options['method']} requires {relation} ({names})")
        values = {key: options[key] for key in _OPTION_DEFAULTS if key in options}
        margins = dataclasses.replace(
            PRESET_TABLE[method].margins,
            **{key: values.pop(key) for key in _MARGIN_FIELDS if key in values},
        )
        config = SpecializeConfig(method, margins, **values)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc

    _keep_heap()
    constraints = ConstraintSet()
    for entry in inputs:  # the embeddings first, so each pair file reads the store
        path, recorded = entry["path"], entry["sha256"]
        if entry["role"] == "embeddings":
            # hashed as it parses, so a changed file that does not parse reports that
            store = load_embeddings(path, options["format"])
            entry["sha256"] = store._source_sha256
        else:
            if recorded is not None and _sha256(path) != recorded:  # before its parse
                raise ValueError(f"{path}: sha256 differs from the replayed manifest")
            entry["sha256"] = load_pairs(constraints, path, entry["role"], store).sha256
        if recorded not in (None, entry["sha256"]):
            raise ValueError(f"{path}: sha256 differs from the replayed manifest")
    _, log = specialize(store, constraints, config)
    out = options["out"]
    manifest = RunManifest(
        tool_version=__version__,
        seed=config.seed,
        method=method,
        format=options["format"],
        config=_config_as_dict(config),
        inputs=inputs,
        output=out,
    )
    publish((f"{out}.log", _text_writer(log.to_tsv())),
            (out, lambda tmp: save_embeddings(store, tmp, options["format"])),
            (f"{out}.manifest", _text_writer(manifest.to_json())))

    held = ", ".join(f"{rel}={len(pairs)}" for rel, pairs in constraints.pairs.items())
    print(f"specialized {len(store)} vectors with {method} ({held}) in {log.wall_time:.2f}s")
    print(f"wrote {out}, {out}.log, {out}.manifest")
    return 0


def _text_writer(text: str):
    """A :func:`publish` writer of ``text`` as UTF-8 with LF line ends."""
    return lambda path: pathlib.Path(path).write_text(text, encoding="utf-8", newline="\n")


def _config_as_dict(config: SpecializeConfig) -> dict:
    """The value of every recorded field of ``config``, the margins flattened in."""
    values = dataclasses.asdict(config)
    for nested in [value for value in values.values() if isinstance(value, dict)]:
        values.update(nested)
    return {f.name: values[f.name] for f in _RECORDED}


def cmd_eval(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    store = load_embeddings(args.embeddings, args.format)
    loader, protocol, seeded = _EVAL_TASKS[args.task]
    dataset = globals()[loader](args.dataset)
    options = {"seed": args.seed} if seeded else {}
    report = globals()[protocol](store, dataset, use_backoff=args.backoff, **options)
    if args.out:  # in place before anything is printed
        publish((args.out, _text_writer(report.to_tsv())))
    print(report.format_table())
    print()
    print(report.to_tsv(), end="")
    return 0


def cmd_nearest(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if not args.word:
        raise UsageError("--word must not be empty")
    store = load_embeddings(args.embeddings, args.format)
    hit = backoff_lookup(store, args.word)
    if hit.row is None:
        raise ValueError(f"{args.word!r} is not covered, even after back-off")
    if hit.truncation_depth > 0:
        print(f"# backed off to {hit.matched_token!r} (depth {hit.truncation_depth})")
    for row, sim in nearest_neighbors(store, hit.row, args.k):
        print(f"{store.vocab[row]}\t{sim:.6f}")
    return 0


def main(argv=None) -> int:
    """Run one command; print any failure as one ``lexfit: error:`` line and
    return 2 for a :class:`UsageError`, 1 for any other."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, NonFiniteGradientError) as exc:
        print(f"lexfit: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
