#!/usr/bin/env bash
# §6 at laptop scale (~100 s on 2 vCPUs). The count and byte tables
# (fig2 fig3 fig8 fig9 tab1 tab3) are byte-reproducible and CI diffs
# them against the committed copies; the timing tables are not.
SI_SCALE=small exec "$(dirname "$0")/tier.sh" kick-tires
