"""Command-line front end: specialize, eval, and nearest subcommands.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Option precedence is command line > ``--config`` key=value file > built-in
defaults. Every specialization run writes a manifest alongside its output;
replaying the manifest reproduces the output byte-exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from . import __version__
from .constraints import PAIR_SETS, RELATIONS, ConstraintSet, constraint_stats, load_pairs
from .embeddings import FORMATS, backoff_lookup, load_embeddings, nearest_neighbors, save_embeddings
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
    PRESETS,
    NonFiniteGradientError,
    SpecializeConfig,
    missing_relations,
    specialize,
)

DEFAULT_SEED = SpecializeConfig.seed


# The manifest records every field with a plain default; a field without one
# (the preset, which the method names, and the nested margins) is not recorded.
_RECORDED = [
    f for cls in (SpecializeConfig, Margins) for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING
]
# every training option: each is a flag and a config-file key
_OPTION_DEFAULTS = {f.name: f.default for f in _RECORDED if f.init}
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
    def from_json(cls, text: str) -> "RunManifest":
        fields = json.loads(text)
        if isinstance(fields["inputs"], dict):
            # older manifests key the inputs by path, one role per path
            fields["inputs"] = [
                {"path": path, "order": 0, **meta} for path, meta in fields["inputs"].items()
            ]
        return cls(**fields)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
            values[key] = _CONFIG_CASTERS[key](value.strip())
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
        sp.add_argument(
            f"--{name.replace('_', '-')}", type=type(default), dest=name,
            help=f"default {default}",
        )
    sp.set_defaults(func=cmd_specialize)

    ev = sub.add_parser("eval", help="evaluate embeddings on an intrinsic task")
    ev.add_argument("--embeddings", required=True)
    ev.add_argument("--format", choices=FORMATS, default="glove-text")
    ev.add_argument(
        "--task", required=True, choices=("sim", "bless", "wbless", "bibless", "hyperlex")
    )
    ev.add_argument("--dataset", required=True, help="TSV dataset file")
    ev.add_argument("--backoff", action="store_true", help="resolve OOV words by end truncation")
    ev.add_argument("--seed", type=int, default=DEFAULT_SEED)
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

    An option none of them sets is left out and keeps its dataclass default.
    """
    options: dict = {}
    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            manifest = RunManifest.from_json(fh.read())
        options.update(manifest.config)
        options["method"] = manifest.method
        options["format"] = manifest.format
        options.setdefault("out", manifest.output)
        entries = sorted(manifest.inputs, key=lambda entry: entry["order"])
        for relation in RELATIONS:
            options[relation] = [entry["path"] for entry in entries if entry["role"] == relation]
        options["embeddings"] = next(
            entry["path"] for entry in entries if entry["role"] == "embeddings"
        )
        # inputs still read from the manifest must be the files it recorded
        options["digests"] = {
            entry["path"]: entry["sha256"] for entry in entries if not getattr(args, entry["role"])
        }
    if args.config:
        options.update(_read_config_file(args.config))
    for key in ("embeddings", "format", "method", "out", *_OPTION_DEFAULTS):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    for relation in RELATIONS:
        if getattr(args, relation):
            options[relation] = list(getattr(args, relation))
        else:
            options.setdefault(relation, [])
    return options


def _usage_error(message: str) -> int:
    print(f"lexfit: error: {message}", file=sys.stderr)
    return 2


def cmd_specialize(args) -> int:
    try:
        options = _resolve_specialize_options(args)
    except (ValueError, OSError, KeyError, StopIteration) as exc:
        return _usage_error(str(exc))

    for key in ("embeddings", "format", "method", "out"):
        if not options.get(key):
            return _usage_error(f"--{key} is required")
    method = options["method"].replace("-", "_")
    if method not in PRESETS:
        return _usage_error(f"unknown method {options['method']!r}")
    given = [relation for relation in RELATIONS if options[relation]]
    if not given:
        return _usage_error("at least one of --syn/--ant/--hyper is required")
    missing = missing_relations(method, given)
    if missing:
        names = " or ".join(f"--{rel}" for rel in missing[0])
        relation = PAIR_SETS[missing[0][0]].replace("_", " ")
        return _usage_error(f"method {options['method']} requires {relation} ({names})")

    values = {key: options[key] for key in _OPTION_DEFAULTS if key in options}
    try:
        margins = Margins(**{key: values.pop(key) for key in _MARGIN_FIELDS if key in values})
        config = SpecializeConfig(method, margins, **values)
    except ValueError as exc:
        return _usage_error(str(exc))

    try:
        for path, recorded in options.get("digests", {}).items():
            if _sha256(path) != recorded:
                raise ValueError(f"{path}: sha256 differs from the replayed manifest")
        store = load_embeddings(options["embeddings"], options["format"])
        constraints = ConstraintSet()
        inputs = [{"role": "embeddings", "order": 0, "path": options["embeddings"],
                   "sha256": _sha256(options["embeddings"])}]
        for relation in RELATIONS:
            for order, path in enumerate(options[relation]):
                load_pairs(constraints, path, relation, store)
                inputs.append(
                    {"role": relation, "order": order, "path": path, "sha256": _sha256(path)}
                )
        _, log = specialize(store, constraints, config)
        save_embeddings(store, options["out"], options["format"])
        with open(options["out"] + ".log", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(log.to_tsv())
        manifest = RunManifest(
            tool_version=__version__,
            seed=config.seed,
            method=method,
            format=options["format"],
            config=_config_as_dict(config),
            inputs=inputs,
            output=options["out"],
        )
        with open(options["out"] + ".manifest", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.to_json())
    except (ValueError, OSError, NonFiniteGradientError) as exc:
        print(f"lexfit: error: {exc}", file=sys.stderr)
        return 1

    stats = constraint_stats(constraints)
    print(
        f"specialized {len(store)} vectors with {method} "
        f"(syn={stats['synonyms']}, ant={stats['antonyms']}, "
        f"hyper={stats['direct_hypernyms']}) in {log.wall_time:.2f}s"
    )
    print(f"wrote {options['out']}, {options['out']}.log, {options['out']}.manifest")
    return 0


def _config_as_dict(config: SpecializeConfig) -> dict:
    """The value of every recorded field of ``config``, the margins flattened in."""
    values = dataclasses.asdict(config)
    for nested in [value for value in values.values() if isinstance(value, dict)]:
        values.update(nested)
    return {f.name: values[f.name] for f in _RECORDED}


def cmd_eval(args) -> int:
    if args.seed < 0:
        return _usage_error("--seed must be >= 0")
    try:
        store = load_embeddings(args.embeddings, args.format)
        if args.task in ("sim", "hyperlex"):
            dataset = load_similarity_dataset(args.dataset)
            if args.task == "sim":
                report = eval_similarity(store, dataset, use_backoff=args.backoff)
            else:
                report = hyperlex_eval(store, dataset, use_backoff=args.backoff)
        else:
            dataset = load_relation_dataset(args.dataset)
            if args.task == "bless":
                report = bless_directionality(store, dataset, use_backoff=args.backoff)
            elif args.task == "wbless":
                report = wbless_classify(
                    store, dataset, seed=args.seed, use_backoff=args.backoff
                )
            else:
                report = bibless_classify(
                    store, dataset, seed=args.seed, use_backoff=args.backoff
                )
    except (ValueError, OSError, KeyError) as exc:
        print(f"lexfit: error: {exc}", file=sys.stderr)
        return 1
    print(report.format_table())
    print()
    print(report.to_tsv(), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_tsv())
    return 0


def cmd_nearest(args) -> int:
    if args.k < 1:
        return _usage_error("--k must be >= 1")
    try:
        store = load_embeddings(args.embeddings, args.format)
    except (ValueError, OSError) as exc:
        print(f"lexfit: error: {exc}", file=sys.stderr)
        return 1
    hit = backoff_lookup(store, args.word)
    if not hit.covered:
        print(f"lexfit: error: {args.word!r} is not covered, even after back-off",
              file=sys.stderr)
        return 1
    if hit.truncation_depth > 0:
        print(f"# backed off to {hit.matched_token!r} (depth {hit.truncation_depth})")
    for row, sim in nearest_neighbors(store, hit.row, args.k):
        print(f"{store.vocab[row]}\t{sim:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
