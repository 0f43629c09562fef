"""Experiment drivers, one module per table/figure of the paper.

==========  ====================================================== =========
module      reproduces                                             paper ref
==========  ====================================================== =========
table1      machine specifications                                 Table I
table2      input graph suite properties                           Table II
fig1        search properties of five serial algorithms            Fig. 1
fig3        relative parallel performance (graft vs PF vs PR)      Fig. 3
fig4        search rate in MTEPS (graft vs PF)                     Fig. 4
fig5        strong scaling by graph class, Mirasol & Edison        Fig. 5
fig6        runtime breakdown of MS-BFS-Graft steps                Fig. 6
fig7        contributions of direction optimization & grafting     Fig. 7
fig8        frontier size per level, with/without grafting         Fig. 8
sensitivity parallel runtime variability (psi)                     §V-B
ablation    alpha sweep / initialiser choice / queue capacity      §III-B
==========  ====================================================== =========
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {})

__all__ = [
    "table1",
    "table2",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "sensitivity",
    "ablation",
    "serial_walltime",
    "phase_dynamics",
]
