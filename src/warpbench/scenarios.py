"""Reference multi-block pipeline mirroring the disc-bundle decomposition:
interior piece, curvature-transfer cylinder, handle bundle, disc bundle,
sphere transition and the round cap.

Checkable edges carry real numbers from built blocks; steps that rest on
existence results (deformations, and the slope transfer from the transfer
block's slope target on to the handle's inner slope) enter as assumed
edges with explicit citation tags.
"""

from __future__ import annotations

import math

from . import blocks
from .curves import constant_curve, linear_combo, sine_curve
from .gluing import (BoundaryProfile, PipelineEdge, PipelineGraph,
                     PipelineNode, assemble_pipeline)

__all__ = ["reference_pipeline", "run_reference_pipeline",
           "DEFAULT_PIPELINE_PARAMS"]

DEFAULT_PIPELINE_PARAMS = {
    "p": 3,                      # disc-bundle fibre dimension (sphere S^{p-1})
    "q": 3,                      # base dimension
    "K": 0.9,
    "handle1": {"lambda1": 0.985, "lambda2": 0.99, "eps1": 0.01,
                "eps2": 0.1, "delta": 0.05},
    "handle2": {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
                "eps": 0.1, "nu": 0.03},
    "transfer": {"r0": 0.1, "nu": 1.25, "lam": 0.5, "a": 0.2, "C": 0.5},
    "interior_convexity": 1.3,
    "transition_convexity": 0.05,
}


def reference_pipeline(params: dict | None = None, grid=None):
    """Build the blocks, wire the decomposition graph and return
    (graph, block_reports).  The graph is None when the handle assembly
    stopped at a failed piece: the assembled collar face the graph is wired
    from then does not exist."""
    P = {**DEFAULT_PIPELINE_PARAMS, **(params or {})}
    p, q, K = P["p"], P["q"], P["K"]

    handle = blocks.assemble_handle(q, K, P["handle1"], P["handle2"],
                                    grid=grid)
    transfer = blocks.build_transfer_block(p=p - 1, q=q, grid=grid,
                                           **P["transfer"])
    r1 = transfer.aux["r1"]
    disc_rep = blocks.build_fibre_disc_warp(p, math.pi / 2.0, grid=grid)
    s0 = 1.2
    A = sine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0, (0.0, s0))
    B = sine_curve(2 * s0 / math.pi, math.pi / (2 * s0), math.pi / 2.0,
                   (0.0, s0))
    transition = blocks.build_sphere_transition(A, B, p - 1, q, grid=grid)
    reports = {"handle": handle, "transfer": transfer, "disc": disc_rep,
               "transition": transition}
    if "collar" not in handle.boundary:
        return None, reports

    mu = P["interior_convexity"]
    r0 = P["transfer"]["r0"]
    interior = PipelineNode(
        "interior", "trusted",
        faces={"boundary": BoundaryProfile(
            dimension=p + q - 1, kind="bundle-over-base",
            metric={"fibre_scale": r0, "base_scale": 1.0,
                    "descriptor": "bundle-over-core"},
            ii={"vertical": mu, "horizontal": mu})},
        citation="declared: convex collar with the stated floor exists by "
                 "the boundary-deformation result")

    transfer_node = PipelineNode("fibre_transfer", "block",
                                 faces=dict(transfer.boundary))

    lam_handle = handle.aux["lambda"]
    collar = handle.boundary["collar"]
    collar_warp = collar.metric["collar_warp"]
    fibre_const = constant_curve(r1, collar_warp.domain)
    handle_node = PipelineNode(
        "handle_bundle", "trusted",
        faces={
            "bottom": BoundaryProfile(
                dimension=p + q - 1, kind="bundle-over-base",
                metric={"fibre_scale": r1, "base_scale": 1.0,
                        "descriptor": "bundle-over-core"},
                ii={"vertical": 0.0, "horizontal": -lam_handle}),
            "collar": BoundaryProfile(
                dimension=p + q - 1, kind="bundle-over-base",
                metric={"collar_warp": collar_warp,
                        "fibre_warp": fibre_const,
                        "descriptor": "collar-over-complement"},
                ii={"all": 0.0}),
            "cap_face": BoundaryProfile(
                dimension=p + q - 1, kind="warped-double-sphere",
                metric={"warp_base":
                        handle.boundary["cap"].metric["warp"],
                        "fibre_scale": r1,
                        "descriptor": "cap-times-fibre"},
                ii={"radial": handle.boundary["cap"].ii["radial"],
                    "sphere": handle.boundary["cap"].ii["sphere"],
                    "vertical": 0.0}),
        },
        citation="fibre bundle over the assembled handle via the pullback "
                 "connection; boundary data pulled back from the base")

    R_prime = float(collar_warp.eval(collar_warp.t_hi, 0))
    t_disc = r1 * math.pi / 2.0
    disc_warp = disc_rep.aux["curves"]["h"]
    fibre_warp = linear_combo([(disc_warp.metric_rescale(r1), 1.0)])
    disc_node = PipelineNode(
        "disc_bundle", "block",
        faces={
            "outer": BoundaryProfile(
                dimension=p + q - 1, kind="bundle-over-base",
                metric={"collar_warp": constant_curve(R_prime,
                                                      (0.0, t_disc)),
                        "fibre_warp": fibre_warp,
                        "descriptor": "collar-over-complement"},
                ii={"all": 0.0}),
            "sphere_part": BoundaryProfile(
                dimension=p + q - 1, kind="warped-double-sphere",
                metric={"warp_base": constant_curve(R_prime,
                                                    (0.0, t_disc)),
                        "fibre_warp": fibre_warp,
                        "descriptor": "tube-times-sphere"},
                ii={"all": 0.0}),
        })

    nu_t = P["transition_convexity"]
    rho = 2 * s0 / math.pi
    transition_node = PipelineNode(
        "sphere_transition", "trusted",
        faces={
            "bottom": BoundaryProfile(
                dimension=p + q - 1, kind="warped-double-sphere",
                metric={"warp_base": A, "warp_fibre": B,
                        "descriptor": "transition-pair"},
                ii={"all": -nu_t}),
            "top": BoundaryProfile(
                dimension=p + q - 1, kind="warped-sphere",
                metric={"warp": sine_curve(rho, 1.0 / rho, 0.0,
                                           (0.0, rho * math.pi / 2)),
                        "descriptor": "round"},
                ii={"all": nu_t}),
        },
        citation="declared: the straightening cylinder exists by the "
                 "path-component deformation result")

    cap_node = PipelineNode(
        "cap", "trusted",
        faces={"boundary": BoundaryProfile(
            dimension=p + q - 1, kind="warped-sphere",
            metric={"warp": sine_curve(rho, 1.0 / rho, 0.0,
                                       (0.0, rho * math.pi / 2)),
                    "descriptor": "round"},
            ii={"all": 0.0})},
        citation="round hemisphere of the matching radius")

    R_big = transfer.aux["R"]
    lam = P["transfer"]["lam"]
    relation = "below" if lam < lam_handle else "not below"
    edges = [
        PipelineEdge(("interior", "boundary"), ("fibre_transfer", "bottom"),
                     "perelman"),
        PipelineEdge(("fibre_transfer", "top"), ("handle_bundle", "bottom"),
                     "assumed", rescale=1.0 / R_big,
                     citation="slope-transfer existence: any target slope "
                              "in (0,1) is attainable for sufficiently "
                              "small fibre scales; the transfer block's "
                              f"slope target lam ({lam:.6g}) is {relation} "
                              "the handle's inner slope "
                              f"({lam_handle:.6g})"),
        PipelineEdge(("handle_bundle", "collar"), ("disc_bundle", "outer"),
                     "smooth-match",
                     junction={"src": collar_warp.t_hi, "dst": t_disc}),
        PipelineEdge(("handle_bundle", "cap_face"),
                     ("sphere_transition", "bottom"), "assumed",
                     citation="boundary deformation to the doubly warped "
                              "pair after corner smoothing"),
        PipelineEdge(("disc_bundle", "sphere_part"),
                     ("sphere_transition", "bottom"), "assumed",
                     citation="boundary deformation to the doubly warped "
                              "pair after corner smoothing"),
        PipelineEdge(("sphere_transition", "top"), ("cap", "boundary"),
                     "perelman"),
    ]
    graph = PipelineGraph(
        nodes=[interior, transfer_node, handle_node, disc_node,
               transition_node, cap_node],
        edges=edges)
    return graph, reports


def run_reference_pipeline(params: dict | None = None, grid=None) -> dict:
    """Build and check the reference pipeline.  A handle assembly that
    stopped at a failed piece leaves the graph unwired: the result then
    fails with every block verdict and no edges."""
    graph, reports = reference_pipeline(params, grid)
    if graph is None:
        result = {"passed": False, "edges": [], "assumed": []}
    else:
        result = assemble_pipeline(graph)
    result["blocks"] = {name: rep.verdict for name, rep in reports.items()}
    result["block_reports"] = reports
    result["passed"] = result["passed"] and all(
        rep.passed for rep in reports.values())
    return result
