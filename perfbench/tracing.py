"""Span tracing of pvguard's layers from outside the package.

``Tracer.install`` replaces the public entry points of each module with
wrappers that record a span (name, start, end, parent span, call id) and
read counts from the returned objects.  A function is replaced in every
pvguard namespace that binds it, so calls between modules are traced too.
Per-state functions (``successors``, ``state_admissible``, ...) are never
wrapped: they run hundreds of thousands of times per call.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer); "Class.method" entries patch the class itself
ENTRY_POINTS = (
    ("parser", "parse_source", "parser"),
    ("deadlock", "potential_deadlocks", "deadlock"),
    ("deadlock", "find_deadlocks", "deadlock"),
    ("deadlock", "family_deadlock_verdict", "deadlock"),
    ("deadlock", "ReachabilityIndex.__init__", "deadlock"),
    ("deadlock", "ReachabilityIndex.witness", "deadlock"),
    ("geometry", "LatticePath.validate", "geometry"),
    ("geometry", "forbidden_rectangles", "geometry"),
    ("serializability", "family_serializability_verdict", "serializability"),
    ("serializability", "kappa1_pair_serializable", "serializability"),
    ("serializability", "local_choice_points", "serializability"),
    ("serializability", "dihomotopy_classes", "serializability"),
    ("report", "state_json", "report"),
    ("report", "deadlock_report_json", "report"),
    ("report", "choice_point_json", "report"),
    ("report", "class_report_json", "report"),
    ("report", "family_verdict_json", "report"),
    ("report", "witness_plan_json", "report"),
    ("report", "envelope", "report"),
    ("report", "dumps", "report"),
    ("cli", "main", "cli"),
)

LAYERS = ("parser", "deadlock", "geometry", "serializability", "report", "cli")

# metric name -> unit, in the order they are printed
PER_LAYER = {
    "deadlock.sieve_s": "s",
    "deadlock.candidates": "count",
    "deadlock.search_s": "s",
    "deadlock.visited": "count",
    "deadlock.states_per_s": "1/s",
    "deadlock.witness_s": "s",
    "deadlock.deadlocks": "count",
    "deadlock.hit_ratio": "ratio",
    "deadlock.self_s": "s",
    "serializability.lcp_sieve_s": "s",
    "serializability.lcp_reach_s": "s",
    "serializability.choice_points": "count",
    "serializability.pair_test_s": "s",
    "geometry.rectangles": "count",
    "geometry.self_s": "s",
    "serializability.classes_s": "s",
    "serializability.class_count": "count",
    "serializability.self_s": "s",
    "parser.parse_s": "s",
    "parser.bytes_per_s": "B/s",
    "report.render_s": "s",
    "report.bytes_out": "B",
    "cli.self_s": "s",
    "trace.overhead_vps": "1/s",
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, call id]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.call_id = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, layer in ENTRY_POINTS:
            mod = sys.modules[f"pvguard.{module}"]
            name = f"{layer}.{attr.replace('.__init__', '')}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, layer))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, layer)
            for modname, other in list(sys.modules.items()):
                if modname.split(".")[0] != "pvguard" or other is None:
                    continue
                if getattr(other, attr, None) is original:
                    self._saved.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans, opened, counts = self.spans, self._open, self.counts
        boundary_only = layer == "report"
        on_result = getattr(self, "_count_" + name.split(".")[-1], None)

        def traced(*args, **kwargs):
            parent = opened[-1] if opened else -1
            if boundary_only and parent >= 0 and spans[parent][0].startswith("report."):
                return fn(*args, **kwargs)
            sid = len(spans)
            record = [name, 0.0, 0.0, parent, self.call_id]
            spans.append(record)
            opened.append(sid)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                opened.pop()
            if on_result is not None:
                counts[sid] = on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counts read from returned objects ------------------------------------

    @staticmethod
    def _count_find_deadlocks(args, kwargs, report):
        return {"candidates": report.stats.candidates, "deadlocks": len(report.deadlocks)}

    @staticmethod
    def _count_ReachabilityIndex(args, kwargs, result):
        return {"visited": args[0].visited}

    @staticmethod
    def _count_local_choice_points(args, kwargs, result):
        return {"choice_points": len(result)}

    @staticmethod
    def _count_forbidden_rectangles(args, kwargs, result):
        return {"rectangles": len(result)}

    @staticmethod
    def _count_dihomotopy_classes(args, kwargs, report):
        return {"class_count": report.class_count}

    @staticmethod
    def _count_parse_source(args, kwargs, result):
        text = args[0] if args else kwargs["text"]
        return {"bytes": len(text.encode("utf-8"))}

    @staticmethod
    def _count_dumps(args, kwargs, text):
        return {"bytes": len(text.encode("utf-8"))}

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self, passes: int, factor: float) -> dict[str, float]:
        """Per-layer metrics, each summed over the traced calls and divided
        by the number of passes (rates are taken before dividing).  Times
        are scaled by the run's machine-speed ``factor``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)

        def under(sid: int, name: str) -> bool:
            parent = spans[sid][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        for sid, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child_time[sid]
            self_by_layer[name.split(".")[0]] += own
            counts = self.counts.get(sid, {})
            short = name.split(".", 1)[1]
            if short == "potential_deadlocks":
                total["deadlock.sieve_s"] += dur
            elif short == "find_deadlocks":
                total["deadlock.candidates"] += counts.get("candidates", 0)
                total["deadlock.deadlocks"] += counts.get("deadlocks", 0)
            elif short == "ReachabilityIndex":
                if under(sid, "serializability.local_choice_points"):
                    total["serializability.lcp_reach_s"] += dur
                else:
                    total["deadlock.search_s"] += dur
                    total["deadlock.visited"] += counts.get("visited", 0)
            elif short in ("ReachabilityIndex.witness", "LatticePath.validate"):
                total["deadlock.witness_s"] += dur
            elif short == "local_choice_points":
                total["serializability.lcp_sieve_s"] += own
                total["serializability.choice_points"] += counts.get("choice_points", 0)
            elif short == "kappa1_pair_serializable":
                total["serializability.pair_test_s"] += dur
            elif short == "forbidden_rectangles":
                if under(sid, "serializability.kappa1_pair_serializable"):
                    total["geometry.rectangles"] += counts.get("rectangles", 0)
            elif short == "dihomotopy_classes":
                total["serializability.classes_s"] += dur
                total["serializability.class_count"] += counts.get("class_count", 0)
            elif short == "parse_source":
                total["parser.parse_s"] += dur
                total["parser.bytes"] += counts.get("bytes", 0)
            elif short == "dumps":
                total["report.bytes_out"] += counts.get("bytes", 0)
            if name.startswith("report.") and (parent < 0 or not spans[parent][0].startswith("report.")):
                total["report.render_s"] += dur
        for layer in ("deadlock", "geometry", "serializability", "cli"):
            total[f"{layer}.self_s"] = self_by_layer[layer]

        out = {}
        for metric in PER_LAYER:
            if metric in ("deadlock.states_per_s", "deadlock.hit_ratio",
                          "parser.bytes_per_s", "trace.overhead_vps"):
                continue
            value = total[metric] / passes
            if PER_LAYER[metric] in ("count", "B"):
                out[metric] = round(value)
            else:
                out[metric] = value * factor
        out["deadlock.states_per_s"] = (
            total["deadlock.visited"] / (total["deadlock.search_s"] * factor)
            if total["deadlock.search_s"] else 0.0
        )
        out["deadlock.hit_ratio"] = (
            total["deadlock.deadlocks"] / total["deadlock.candidates"]
            if total["deadlock.candidates"] else 0.0
        )
        out["parser.bytes_per_s"] = (
            total["parser.bytes"] / (total["parser.parse_s"] * factor)
            if total["parser.parse_s"] else 0.0
        )
        return out

    def call_breakdown(self, call_id: int) -> dict[str, float]:
        """Time per span name, and counts, within one call."""
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, cid) in enumerate(self.spans):
            if cid != call_id:
                continue
            out[name + "_s"] += end - start
            for key, value in self.counts.get(sid, {}).items():
                out[f"{name}.{key}"] += value
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, cid) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": cid,
                                     **self.counts.get(sid, {})}) + "\n")
