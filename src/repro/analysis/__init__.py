"""Measured-vs-model strong-scaling sweeps (:mod:`repro.analysis.scaling_sweep`).

Gauge generation and hadron analysis are not part of this library: as in
the paper, where Chroma and MILC drive QUDA, they belong to the
application that calls the solver."""
