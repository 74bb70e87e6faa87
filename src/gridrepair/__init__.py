"""Repair crew scheduling for damaged radial distribution feeders.

A damaged feeder is a tree of lines, a few of which carry isolating
switches.  Deleting the switch lines splits the feeder into islands that
can only be energized once every repair on the path back to the source is
done.  The package computes crew schedules that minimize the total
weighted island energization time ("harm"):

* an exact single-crew sequencer (`seq_opt`),
* LP-relaxation midpoint list scheduling with a 2x guarantee (`lp`, `algos`),
* conversion of the optimal single-crew sequence to m crews with a
  (2 - 1/m) guarantee (`algos`),
* a brute-force oracle and bound certifiers for desk-scale verification
  (`oracle`), and
* instance I/O, random generation and benchmarking (`harness`, `cli`).
"""

__version__ = "0.1.0"
