"""Run reports: a structured record of one pipeline run and its renderings.

The structured rendering is versioned JSON with sorted keys and
repr-fidelity floats, so equal runs serialize to identical bytes and
parse back without loss.  Timing information varies run to run and is
never written, keeping report bodies comparable across reruns of the
same config and seed.

The table rendering is a plain-text summary with one block per reply
type and confounder variant: estimator rows, category-type columns,
cells formatted as "point (standard error)" with a trailing star when
the 95 percent normal interval excludes zero.  The delimited rendering
is one CSV row per estimate for spreadsheet import.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..corpus import Triple
from ..estimators import AipwVariant, AteEstimate, Estimator
from ..inference import CvReport
from ..lexicon import CategoryType

REPORT_FORMAT = "tonefx-report"
REPORT_FORMAT_VERSION = "1.0"

CATEGORY_LABELS = {
    CategoryType.POSITIVE_SENTIMENT: "Pos. sentiment",
    CategoryType.NEGATIVE_SENTIMENT: "Neg. sentiment",
    CategoryType.LINGUISTIC_STYLE: "Ling. style",
}


class ReportError(ValueError):
    """Malformed or unsupported report document."""


def triple_summary(triples: Sequence[Triple]) -> dict[str, Any]:
    """Count block for one reply type's extracted triples."""
    treated = sum(t.treatment.value for t in triples)
    per_topic: dict[str, int] = {}
    for t in triples:
        per_topic[t.debate_topic] = per_topic.get(t.debate_topic, 0) + 1
    return {
        "total": len(triples),
        "treated": treated,
        "control": len(triples) - treated,
        "per_topic": dict(sorted(per_topic.items())),
    }


@dataclass(eq=False)
class RunReport:
    """Everything a pipeline run reports, ready for rendering."""

    config: dict[str, Any]
    triple_counts: dict[str, dict[str, Any]] = field(default_factory=dict)
    cv_reports: list[CvReport] = field(default_factory=list)
    estimates: list[AteEstimate] = field(default_factory=list)
    topic_top_words: dict[str, list[list[str]]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    failed_cells: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def _cv_to_dict(cv: CvReport) -> dict[str, Any]:
    return {
        "reply_type": cv.reply_type,
        "variant": cv.variant,
        "category_type": cv.category_type,
        "fold_count": cv.fold_count,
        "rmse_q0": list(cv.rmse_q0),
        "rmse_q1": list(cv.rmse_q1),
        "f1": list(cv.f1),
        "skipped_folds": list(cv.skipped_folds),
    }


def _estimate_to_dict(est: AteEstimate) -> dict[str, Any]:
    return {
        "estimator": est.estimator.value,
        "reply_type": est.reply_type,
        "category_type": est.category_type,
        "confounder_variant": est.confounder_variant,
        "aipw_variant": est.aipw_variant.value if est.aipw_variant else None,
        "psi": est.psi,
        "standard_error": est.standard_error,
        "n": est.n,
        "significant": est.significant,
    }


def render_report(report: RunReport, fmt: str = "structured") -> str:
    if fmt == "structured":
        return _render_structured(report)
    if fmt == "table":
        return _render_table(report)
    if fmt == "delimited":
        return _render_delimited(report)
    raise ReportError(f"unknown report format {fmt!r}")


def _render_structured(report: RunReport) -> str:
    document: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "triple_counts": report.triple_counts,
        "cv": [_cv_to_dict(cv) for cv in report.cv_reports],
        "estimates": [_estimate_to_dict(est) for est in report.estimates],
        "topics": report.topic_top_words,
        "warnings": report.warnings,
        "failed_cells": report.failed_cells,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> RunReport:
    """Rebuild a RunReport from its structured rendering."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != REPORT_FORMAT:
        raise ReportError("not a structured run report")
    version = str(document.get("version", ""))
    if version.split(".")[0] != REPORT_FORMAT_VERSION.split(".")[0]:
        raise ReportError(
            f"unsupported report version {version!r}; this build reads "
            f"{REPORT_FORMAT_VERSION.split('.')[0]}.x"
        )
    cv_reports = [
        CvReport(
            fold_count=entry["fold_count"],
            rmse_q1=tuple(entry["rmse_q1"]),
            rmse_q0=tuple(entry["rmse_q0"]),
            f1=tuple(entry["f1"]),
            skipped_folds=tuple(entry.get("skipped_folds", ())),
            reply_type=entry.get("reply_type"),
            variant=entry.get("variant"),
            category_type=entry.get("category_type"),
        )
        for entry in document.get("cv", [])
    ]
    estimates = [
        AteEstimate(
            estimator=Estimator(entry["estimator"]),
            psi=entry["psi"],
            standard_error=entry.get("standard_error"),
            n=entry["n"],
            reply_type=entry.get("reply_type"),
            category_type=entry.get("category_type"),
            aipw_variant=AipwVariant(entry["aipw_variant"]) if entry.get("aipw_variant") else None,
            confounder_variant=entry.get("confounder_variant"),
        )
        for entry in document.get("estimates", [])
    ]
    return RunReport(
        config=document.get("config", {}),
        triple_counts=document.get("triple_counts", {}),
        cv_reports=cv_reports,
        estimates=estimates,
        topic_top_words=document.get("topics", {}),
        warnings=document.get("warnings", []),
        failed_cells=document.get("failed_cells", []),
    )


def format_cell(psi: float, standard_error: float | None, significant: bool | None) -> str:
    """One table cell: point estimate, parenthesized error, significance star."""
    if standard_error is None:
        return f"{psi:.1f} (-)"
    star = "*" if significant else ""
    return f"{psi:.1f} ({standard_error:.1f}){star}"


def _layout(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _render_table(report: RunReport) -> str:
    lines: list[str] = ["treatment effect estimates", "=========================="]

    if report.triple_counts:
        lines += ["", "triples"]
        rows = [["reply type", "total", "treated", "control"]]
        for reply_type, counts in report.triple_counts.items():
            rows.append(
                [
                    reply_type,
                    str(counts.get("total", "")),
                    str(counts.get("treated", "")),
                    str(counts.get("control", "")),
                ]
            )
        lines += _layout(rows)

    if report.cv_reports:
        lines += ["", "cross-validated nuisance fit"]
        rows = [["reply type", "confounders", "outcome", "folds", "f1", "rmse q0", "rmse q1"]]
        for cv in report.cv_reports:
            rows.append(
                [
                    cv.reply_type or "-",
                    cv.variant or "-",
                    cv.category_type or "-",
                    str(cv.fold_count),
                    f"{cv.mean_f1:.2f}",
                    f"{cv.mean_rmse_q0:.4f}",
                    f"{cv.mean_rmse_q1:.4f}",
                ]
            )
        lines += _layout(rows)

    blocks: dict[tuple[str, str], list[AteEstimate]] = {}
    for est in report.estimates:
        key = (est.reply_type or "-", est.confounder_variant or "-")
        blocks.setdefault(key, []).append(est)
    for (reply_type, variant), block in blocks.items():
        n = block[0].n
        lines += ["", f"reply type: {reply_type} | confounders: {variant} | n={n}"]
        categories: list[str] = []
        for est in block:
            label = est.category_type or "-"
            if label not in categories:
                categories.append(label)
        order = [e.value for e in Estimator]
        estimators = sorted(
            {est.estimator for est in block},
            key=lambda e: order.index(e.value),
        )
        header = ["estimator"] + [
            CATEGORY_LABELS.get(CategoryType(c), c) if c != "-" else "-" for c in categories
        ]
        rows = [header]
        lookup = {(est.estimator, est.category_type or "-"): est for est in block}
        for estimator in estimators:
            row = [estimator.value]
            for category in categories:
                est = lookup.get((estimator, category))
                row.append(
                    format_cell(est.psi, est.standard_error, est.significant) if est else "-"
                )
            rows.append(row)
        lines += _layout(rows)

    if report.warnings:
        lines += ["", "warnings"]
        lines += [f"- {w}" for w in report.warnings]
    return "\n".join(lines) + "\n"


def _render_delimited(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "estimator",
            "reply_type",
            "category_type",
            "confounder_variant",
            "aipw_variant",
            "psi",
            "standard_error",
            "n",
            "significant",
        ]
    )
    for est in report.estimates:
        writer.writerow(
            [
                est.estimator.value,
                est.reply_type or "",
                est.category_type or "",
                est.confounder_variant or "",
                est.aipw_variant.value if est.aipw_variant else "",
                repr(est.psi),
                "" if est.standard_error is None else repr(est.standard_error),
                est.n,
                "" if est.significant is None else str(est.significant).lower(),
            ]
        )
    return buffer.getvalue()
