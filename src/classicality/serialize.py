"""JSON file formats for fragments, statistics, identities and certificates.

All formats are plain JSON objects; unknown keys on fragments are
preserved across a load/dump round-trip.  Dumping is deterministic
(sorted keys, plain floats) so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import FormatError
from .fragments import Fragment, GptVector, Measurement, StatisticsTable
from .identities import OperationalIdentity
from .models import OntologicalModel
from .noncontextuality import NoncontextualityInequality
from .secondary import SecondarySolution
from .tomography import CountTable


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _expect(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise FormatError(f"{ctx}: missing key {key!r}")
    return obj[key]


@contextmanager
def _malformed(kind: str):
    """Turn a JSON value of the wrong shape or type into a FormatError.

    This is the one error boundary of every reader; ``kind`` names the file.
    """
    try:
        yield
    except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} file: {exc}") from exc


def _header_to_obj(t) -> dict:
    return {
        "preparations": list(t.preparations),
        "measurements": list(t.measurements),
        "outcomes": [list(o) for o in t.outcomes],
    }


def _header_from_obj(obj: dict, ctx: str) -> tuple:
    """(preparations, measurements, outcomes): the first three fields of
    ``StatisticsTable``, ``CountTable`` and ``NoncontextualityInequality``."""
    return (
        [str(x) for x in _expect(obj, "preparations", ctx)],
        [str(x) for x in _expect(obj, "measurements", ctx)],
        [[str(b) for b in o] for o in _expect(obj, "outcomes", ctx)],
    )


def _cells_to_obj(blocks: list, nx: int) -> list:
    """Per-measurement (x, b) blocks as the files' [x][y][b] nesting."""
    return [[block[x].tolist() for block in blocks] for x in range(nx)]


def _cells_from_obj(raw, header: tuple) -> list:
    """Per-measurement rows as read; the table classes convert and check them."""
    nx, ny = len(header[0]), len(header[1])
    return [[raw[x][y] for x in range(nx)] for y in range(ny)]


# -- fragments ---------------------------------------------------------

_FRAGMENT_KEYS = {
    "name",
    "dimension",
    "unit_effect",
    "states",
    "effects",
    "measurements",
    "subsystems",
}


def fragment_to_obj(f: Fragment) -> dict:
    obj = dict(f.extra)
    obj.update(
        {
            "name": f.name,
            "dimension": f.dimension,
            "unit_effect": f.unit_effect.tolist(),
            "states": [
                {"label": v.label, "vector": v.vector.tolist()} for v in f.states
            ],
            "effects": [
                {"label": v.label, "vector": v.vector.tolist()} for v in f.effects
            ],
            "measurements": [
                {"label": m.label, "effects": list(m.effects)} for m in f.measurements
            ],
        }
    )
    if f.subsystems is not None:
        subs = []
        for i, (name, dim) in enumerate(f.subsystems):
            entry = {"name": name, "dimension": dim}
            if f.subsystem_units is not None:
                entry["unit"] = np.asarray(f.subsystem_units[i]).tolist()
            subs.append(entry)
        obj["subsystems"] = subs
    return obj


def fragment_from_obj(obj: dict) -> Fragment:
    if not isinstance(obj, dict):
        raise FormatError("fragment file must be a JSON object")
    with _malformed("fragment"):
        dimension = int(_expect(obj, "dimension", "fragment"))
        states = [
            GptVector(str(_expect(s, "label", "state")), _expect(s, "vector", "state"), "state")
            for s in obj.get("states", [])
        ]
        effects = [
            GptVector(str(_expect(e, "label", "effect")), _expect(e, "vector", "effect"), "effect")
            for e in obj.get("effects", [])
        ]
        measurements = [
            Measurement(
                str(_expect(m, "label", "measurement")),
                tuple(str(x) for x in _expect(m, "effects", "measurement")),
            )
            for m in obj.get("measurements", [])
        ]
        subsystems = None
        subsystem_units = None
        if obj.get("subsystems") is not None:
            subsystems = [
                (str(_expect(s, "name", "subsystem")), int(_expect(s, "dimension", "subsystem")))
                for s in obj["subsystems"]
            ]
            if all("unit" in s for s in obj["subsystems"]):
                subsystem_units = [np.asarray(s["unit"], dtype=float) for s in obj["subsystems"]]
        extra = {k: v for k, v in obj.items() if k not in _FRAGMENT_KEYS}
        return Fragment(
            name=str(obj.get("name", "unnamed")),
            dimension=dimension,
            unit_effect=_expect(obj, "unit_effect", "fragment"),
            states=states,
            effects=effects,
            measurements=measurements,
            subsystems=subsystems,
            subsystem_units=subsystem_units,
            extra=extra,
        )


# -- statistics and counts ---------------------------------------------


def statistics_to_obj(t: StatisticsTable) -> dict:
    return {**_header_to_obj(t), "p": _cells_to_obj(t.tables, len(t.preparations))}


def statistics_from_obj(obj: dict, tol: float = 1e-9) -> StatisticsTable:
    """The table, its entries range-checked to [0, 1] up to ``tol``."""
    with _malformed("statistics"):
        header = _header_from_obj(obj, "statistics")
        p = _expect(obj, "p", "statistics")
        return StatisticsTable(*header, tables=_cells_from_obj(p, header), tol=tol)


def counts_to_obj(c: CountTable) -> dict:
    return {
        **_header_to_obj(c),
        "counts": _cells_to_obj(c.counts, len(c.preparations)),
        "trials": c.trials.tolist(),
        "seed": c.seed,
    }


def counts_from_obj(obj: dict) -> CountTable:
    with _malformed("count"):
        header = _header_from_obj(obj, "counts")
        raw = _expect(obj, "counts", "counts")
        return CountTable(
            *header,
            counts=_cells_from_obj(raw, header),
            trials=_expect(obj, "trials", "counts"),
            seed=obj.get("seed"),
        )


# -- identities ---------------------------------------------------------


def identities_to_obj(idents) -> list:
    out = []
    for ident in idents:
        entry = {
            "side": ident.side,
            "terms": [
                {"label": lab, "coefficient": coeff} for lab, coeff in ident.terms
            ],
            "residual": ident.residual,
        }
        if ident.marginalization is not None:
            entry["keep_subsystem"] = ident.marginalization
        out.append(entry)
    return out


def identities_from_obj(obj) -> list[OperationalIdentity]:
    if not isinstance(obj, list):
        raise FormatError("identity file must be a JSON array")
    out = []
    with _malformed("identity"):
        for entry in obj:
            terms = [
                (
                    str(_expect(t, "label", "identity term")),
                    float(_expect(t, "coefficient", "identity term")),
                )
                for t in _expect(entry, "terms", "identity")
            ]
            out.append(
                OperationalIdentity(
                    side=str(_expect(entry, "side", "identity")),
                    terms=terms,
                    marginalization=entry.get("keep_subsystem"),
                    residual=float(entry.get("residual", 0.0)),
                )
            )
    return out


# -- inequalities --------------------------------------------------------


def inequality_to_obj(ineq: NoncontextualityInequality) -> dict:
    coefficients = [
        {"x": prep, "y": m, "b": out, "c": float(ineq.coefficients[y][x, b])}
        for y, m in enumerate(ineq.measurements)
        for x, prep in enumerate(ineq.preparations)
        for b, out in enumerate(ineq.outcomes[y])
    ]
    return {
        **_header_to_obj(ineq),
        "coefficients": coefficients,
        "bound": ineq.bound,
        "provenance": ineq.provenance,
    }


def inequality_from_obj(obj: dict) -> NoncontextualityInequality:
    with _malformed("inequality"):
        header = _header_from_obj(obj, "inequality")
        preparations, measurements, outcomes = header
        coeffs = [
            np.zeros((len(preparations), len(outcomes[y])))
            for y in range(len(measurements))
        ]
        for term in _expect(obj, "coefficients", "inequality"):
            y = measurements.index(str(term["y"]))
            x = preparations.index(str(term["x"]))
            b = outcomes[y].index(str(term["b"]))
            coeffs[y][x, b] = float(term["c"])
        return NoncontextualityInequality(
            *header,
            coefficients=coeffs,
            bound=float(_expect(obj, "bound", "inequality")),
            provenance=str(obj.get("provenance", "")),
        )


# -- noncontextual models and embedding certificates ---------------------


def model_to_obj(model: OntologicalModel) -> dict:
    return {
        "ontic_states": model.ontic_labels,
        "mu": model.mu.tolist(),
        "xi": [x.tolist() for x in model.xi],
    }


def certificate_to_obj(result, inequality=None) -> dict:
    if result.embeddable:
        cert = result.certificate
        triplets = [
            [int(i), int(j), float(cert.beta[i, j])] for i, j in cert.pairs
        ]
        return {
            "verdict": "embeddable",
            "beta": triplets,
            "h_rays": cert.h_rays.tolist(),
            "d_rays": cert.d_rays.tolist(),
            "residual": cert.residual,
        }
    obj = {
        "verdict": "not_embeddable",
        "farkas": result.farkas_matrix.reshape(-1).tolist(),
    }
    if inequality is not None:
        obj["violated_inequality"] = inequality_to_obj(inequality)
    return obj


def secondary_to_obj(sol: SecondarySolution) -> dict:
    return {
        "weights": sol.weights.tolist(),
        "secondaries": sol.secondaries.tolist(),
        "residuals": [float(r) if np.isfinite(r) else None for r in sol.residuals],
        "primary_weight": sol.primary_weight.tolist(),
        "target_labels": list(sol.target_labels),
        "mixer_labels": list(sol.mixer_labels),
        "feasible": sol.feasible,
        "farkas_margin": sol.farkas_margin,
    }
