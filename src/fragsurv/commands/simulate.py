"""`fragsurv simulate`: a synthetic trial as CSV, or the histogram of fragility indices over replications."""

from __future__ import annotations

from .. import cli
from ..sim import SimSpec, fi_distribution, simulate_trial


def run(args) -> int:
    try:
        spec = SimSpec(
            n=args.n,
            event_rate=args.rate,
            censor_time=args.censor_time,
            censor_rate=args.censor_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise cli.IngestError(str(exc)) from None
    if args.replications < 0:
        raise cli.IngestError(f"--replications must be >= 0, got {args.replications}")
    if args.replications > 0:
        if args.t0 is None:
            raise cli.IngestError("--replications requires --t0")
        config = cli._analysis_config(args)
        counts = fi_distribution(spec, config, args.replications)
        ordered = {str(k): counts[k] for k in sorted(k for k in counts if isinstance(k, int))}
        ordered.update((m, counts[m]) for m in ("not_attained", "not_applicable", "error") if m in counts)
        report = cli._report(
            spec=vars(spec), config=cli._config_json(config), replications=args.replications, counts=ordered
        )
        cli._emit(cli._render(report, args.format), args.out)
        return cli.EXIT_OK

    cli.write_csv(simulate_trial(spec), args.out)
    return cli.EXIT_OK
