"""Put the package sources and the benchmark modules on sys.path for
`python -m pytest perfbench` run from the root of a checkout."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
