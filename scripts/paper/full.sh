#!/usr/bin/env bash
# §6 at the paper's sizes (up to 10^6 sentences; several GB of RAM and
# hours of runtime).
SI_SCALE=paper exec "$(dirname "$0")/tier.sh" full
