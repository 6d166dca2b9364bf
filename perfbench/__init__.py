"""perfbench: the simulator's performance ledger (see perfbench/README.md)."""
