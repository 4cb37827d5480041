#!/usr/bin/env python3
"""Generate the CSV datasets behind every named sweep preset.

Writes one file per scenario (plus the no-diamagnetic variant of the
resonant coupling sweep) into the output directory.  Any plotting tool
can consume the CSVs; the column schema is the sweep CLI's.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from hopfield_gaussian.scenarios import SCENARIOS
from hopfield_gaussian.sweep import sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figure_data", help="output directory")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = dict(SCENARIOS)
    jobs["fig5_no_diamag"] = replace(SCENARIOS["fig5"], diamag_mode="zero")

    # presets that differ only in name and description (fig4 and fig3a, fig2b
    # and fig2a) share one grid, which is rendered once; the repr stands in
    # for the spec as a key because its `fixed` dict is not hashable
    rendered: dict[str, str] = {}
    for name, spec in sorted(jobs.items()):
        grid = repr(replace(spec, scenario="", description=""))
        if grid not in rendered:
            rendered[grid] = sweep_csv(spec)
        path = out / f"{name}.csv"
        path.write_text(rendered[grid], newline="\n")
        print(f"wrote {path} ({len(spec.axes)} axis sweep)")


if __name__ == "__main__":
    main()
