"""`fragsurv reproduce-paper`: the three bundled case studies, re-run against their published values."""

from __future__ import annotations

import sys

from .. import cli
from ..fragility import calibrate, fragility_index
from ..survival import AnalysisConfig, GammaParams, SurvivalDataset, _Value


def run(args) -> int:
    bundle, mismatches = run_reproduce_paper()
    cli._emit(cli._render(bundle, args.format), args.out)
    for mismatch in mismatches:
        sys.stderr.write(f"{cli._PROG}: reproduction-mismatch: {mismatch}\n")
    return cli.EXIT_NUMERICAL_ERROR if mismatches else cli.EXIT_OK


class CaseStudy(_Value):
    key: str
    label: str
    n: int
    events: int
    t0: float
    reported_initial_prob: float
    published_fi: int

    def __init__(self, key: str, label: str, n: int, events: int, t0: float, reported_initial_prob: float,
                 published_fi: int):
        vars(self).update(key=key, label=label, n=n, events=events, t0=t0, reported_initial_prob=reported_initial_prob,
                          published_fi=published_fi)

    @property
    def censored(self) -> int:
        return self.n - self.events


CASE_STUDIES = (
    CaseStudy("lung-cancer", "Advanced lung cancer, overall survival", 30, 22, 7.0, 0.935, 5),
    CaseStudy("pembrolizumab-hcc", "Pembrolizumab in hepatocellular carcinoma, progression-free survival",
              28, 20, 3.5, 0.958, 6),
    CaseStudy("palbociclib-breast", "Palbociclib in metastatic breast cancer, progression-free survival",
              51, 31, 15.0, 0.948, 6),
)

_CASE_PRIOR = GammaParams(0.5, 0.5)
_CASE_P0 = 0.7
_CASE_PROB_TOL = 1e-6


def reconstruct_case_dataset(case: CaseStudy) -> SurvivalDataset:
    """Dataset matching a case study's published summary statistics.

    Only the event count and the total follow-up time enter the posterior,
    so the individual times can be set uniformly: the posterior rate is
    back-solved from the published initial probability and split evenly.
    """
    posterior_rate = calibrate(_CASE_PRIOR.shape + case.events, case.reported_initial_prob, case.t0)
    per_subject = (posterior_rate - _CASE_PRIOR.rate) / case.n
    return SurvivalDataset([per_subject] * case.n, [1] * case.events + [0] * case.censored)


def run_reproduce_paper() -> tuple[dict, list[str]]:
    """Re-run the three bundled case studies against their published values.

    Returns the report bundle plus a list of mismatch descriptions (empty
    when every computed value agrees with the published one).
    """
    mismatches: list[str] = []
    cases = []
    for case in CASE_STUDIES:
        dataset = reconstruct_case_dataset(case)
        config = AnalysisConfig(t0=case.t0, p0=_CASE_P0, prior=_CASE_PRIOR)
        result = fragility_index(dataset, config)
        fragility = cli._fragility_json(result)
        prob_ok = abs(result.initial_prob - case.reported_initial_prob) <= _CASE_PROB_TOL
        fi_ok = result.fi == case.published_fi
        if not prob_ok:
            mismatches.append(
                f"{case.key}: calibrated initial probability {result.initial_prob!r} "
                f"differs from published {case.reported_initial_prob!r}"
            )
        if not fi_ok:
            mismatches.append(
                f"{case.key}: computed FI {result.fi_text}, published {case.published_fi}"
            )
        cases.append(
            {
                "case": case.key,
                "label": case.label,
                "n": case.n,
                "events": case.events,
                "censored": case.censored,
                "t0": case.t0,
                "p0": _CASE_P0,
                "prior_shape": _CASE_PRIOR.shape,
                "prior_rate": _CASE_PRIOR.rate,
                "reported_initial_probability": case.reported_initial_prob,
                "computed_initial_probability": result.initial_prob,
                "initial_probability_matches": prob_ok,
                "published_fi": case.published_fi,
                "computed_fi": result.fi,
                "fi_matches_published": fi_ok,
                "fq": fragility["fq"],
                "trajectory": fragility["trajectory"],
            }
        )
    return cli._report(cases=cases, all_match=not mismatches), mismatches
