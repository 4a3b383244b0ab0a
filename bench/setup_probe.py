"""Set-up work of one `elmsc cluster` run, in a fresh interpreter.

Usage: python3 setup_probe.py CLUSTERS (--manifest PATH | --synthetic JSON)

Imports elmsc and runs the set-up steps of `elmsc cluster` through the
CLI's own code: load or generate the dataset, pick the PCA component count
and build the augmented matrix; then exits. The caller times the process
from spawn to exit, so interpreter start and imports are included.
"""

import json
import sys

import elmsc.cli
import elmsc.dataset


def main(argv):
    if len(argv) != 3 or argv[1] not in ("--manifest", "--synthetic"):
        sys.stderr.write(__doc__)
        return 2
    clusters = int(argv[0])
    source = ({"manifest": argv[2]} if argv[1] == "--manifest"
              else {"synthetic": json.loads(argv[2])})
    cfg = elmsc.cli.RunConfig(out="-", clusters=clusters, **source)
    data = elmsc.cli._load_or_generate(cfg)
    pca = elmsc.dataset.default_pca_components(cfg.clusters, data)
    xa = elmsc.dataset.build_augmented(data, pca)
    print(xa.xa.shape[0], xa.xa.shape[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
