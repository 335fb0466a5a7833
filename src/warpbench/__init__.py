"""Numerical workbench for explicit positive-Ricci metric constructions:
warped-product curvature formulas, block builders with margin-certified
reports, gluing checkers, parameter feasibility search, and mod-2
characteristic numbers."""

from .curves import (SmoothCurve, ParityReport, make_concave_profile,
                     integrate_transfer_odes, transfer_ode_residuals,
                     smooth_join, parity_margin, flatness_margin,
                     sine_curve, cosine_curve, constant_curve, line_curve,
                     poly_curve, linear_combo, piecewise_curve)
from .curvature import (DoublyWarpedMetric, BundleWarpedMetric,
                        CohomogOneMetric, ABounds, doubly_warped_sweep,
                        slice_II, submersion_shrink_bounds, fd_ricci,
                        doubly_warped_chart, flat_chart, oracle_cross_check)
from .blocks import (Report, Margin, build_cone_metric, build_handle1,
                     corner_angle_handle1, build_handle2, assemble_handle,
                     build_transfer_block, build_s1_block,
                     build_fibre_disc_warp, build_sphere_transition,
                     projective_family_check, wu_family_check,
                     boundary_conformal_margin)
from .gluing import (BoundaryProfile, Corner, PipelineNode, PipelineEdge,
                     PipelineGraph, check_perelman, check_corner_gluing,
                     assemble_pipeline)
from .feasibility import ParamBox, Interval, Certificate, scan, refine
from .charclasses import (Mod2Ring, Mod2Class, ring_cpn, ring_wi,
                          product_ring, sw_number, omega9_generator_table)
from .scenarios import reference_pipeline, run_reference_pipeline

__version__ = "0.1.0"
