"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so the
same seed always yields byte-identical inputs.  The generators depend only on
numpy and the standard library, never on the package under test, so a change
to the package cannot change the inputs it is measured on.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Reference exp-channel of the chain and the sweep (tau, T_p, V_th).
REF_CHANNEL = {"tau": 1.0, "t_p": 0.5, "vth": 0.5}
CHAIN_ETA = {"plus": 0.1, "minus": 0.05}

CHAIN_STAGES = 20
CHAIN_TRANSITIONS = 2500
CHAIN_GAP = (0.3, 3.0)
CHAIN_TAIL = 50.0  # horizon beyond the last stimulus edge; the chain settles well within it

SWEEP_GRID = (0.1, 1.5, 0.004)
ANALYZE_POINTS = 500


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (workload seed, input stream)."""
    return np.random.default_rng([seed, stream])


def chain_netlist(seed: int) -> dict:
    """A NOT chain i -> g1 -> ... -> g<CHAIN_STAGES> -> o of eta-involution exp-channels.

    Every channel draws its eta uniformly with its own seed derived from
    ``seed``.  Gate initial values alternate so that the chain starts settled.
    """
    stages = range(1, CHAIN_STAGES + 1)
    seeds = _rng(seed, 1).integers(0, 2**31 - 1, size=CHAIN_STAGES + 1)
    gates = [{"name": f"g{k}", "function": "NOT", "arity": 1, "initial": k % 2} for k in stages]
    hops = ["i"] + [f"g{k}" for k in stages]
    sinks = [f"g{k}.0" for k in stages] + ["o"]
    channels = [
        {
            "name": f"c{k}",
            "from": src,
            "to": dst,
            "kind": "eta_involution",
            "params": {"exp": dict(REF_CHANNEL)},
            "eta": dict(CHAIN_ETA),
            "strategy": {"variant": "uniform_random", "seed": int(s)},
        }
        for k, (src, dst, s) in enumerate(zip(hops, sinks, seeds))
    ]
    ports = [{"name": "i", "direction": "in"}, {"name": "o", "direction": "out"}]
    return {"ports": ports, "gates": gates, "channels": channels}


def chain_stimulus(seed: int, transitions: int = CHAIN_TRANSITIONS) -> list[float]:
    """Rising/falling edge times of a pulse train starting low, with gaps uniform on CHAIN_GAP.

    The gaps are a seeded shuffle of evenly spaced values (stratified uniform
    draws), so every seed gets the same gap distribution and duration and the
    seeds differ only in the order of pulses; plain independent draws moved
    the event count by several percent from seed to seed.
    """
    gaps = _rng(seed, 2).permutation(np.linspace(CHAIN_GAP[0], CHAIN_GAP[1], transitions))
    return [float(t) for t in np.cumsum(gaps)]


def chain_horizon(times: list[float]) -> float:
    return math.ceil(times[-1] + CHAIN_TAIL)


def write_chain_inputs(seed: int, netlist_path: str, stimulus_path: str, transitions: int = CHAIN_TRANSITIONS) -> float:
    """Write the chain netlist JSON and stimulus trace CSV; returns the horizon."""
    with open(netlist_path, "w") as fh:
        json.dump(chain_netlist(seed), fh, indent=1)
    times = chain_stimulus(seed, transitions)
    with open(stimulus_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["signal", "time", "value"])
        w.writerow(["i", "-inf", 0])
        for n, t in enumerate(times):
            w.writerow(["i", repr(t), 1 - n % 2])
    return chain_horizon(times)


def sweep_grid(seed: int) -> list[float]:
    """START STOP STEP of the spf-sweep width grid; the start moves by a seeded part of a step."""
    start, stop, step = SWEEP_GRID
    offset = float(_rng(seed, 3).uniform(0.0, step))
    return [start + offset, stop, step]


def exp_delays(tau: float, t_p: float, vth: float):
    """Closed-form exp-channel (delta_inf_up, delta_inf_down, delta_up, delta_down), independent of the package."""
    d_inf_up = t_p - tau * math.log(1.0 - vth)
    d_inf_down = t_p - tau * math.log(vth)

    def up(T: float) -> float:
        return tau * math.log1p(-math.exp(-(T + d_inf_down) / tau)) + d_inf_up

    def down(T: float) -> float:
        return tau * math.log1p(-math.exp(-(T + d_inf_up) / tau)) + d_inf_down

    return d_inf_up, d_inf_down, up, down


def constraint_c_margin(tau: float, t_p: float, vth: float, eta_plus: float, eta_minus: float) -> float:
    """Margin of constraint (C): delta_down(-eta_plus) - delta_min - eta_plus - eta_minus.

    For an exp-channel delta_min equals the pure delay t_p.
    """
    down = exp_delays(tau, t_p, vth)[3]
    return down(-eta_plus) - t_p - eta_plus - eta_minus


def analyze_points(seed: int) -> list[dict]:
    """Seeded (V_th, T_p, eta_plus, eta_minus) points with tau = 1, all satisfying (C).

    Each eta budget is a fraction of the margin left to it: eta_plus takes a
    share of the zero-budget margin, eta_minus a share of what remains after
    eta_plus, so every point keeps a positive margin by construction.
    """
    rng = _rng(seed, 4)
    points = []
    while len(points) < ANALYZE_POINTS:
        vth, t_p, a, b = rng.uniform(0.3, 0.7), rng.uniform(0.2, 1.0), rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.8)
        eta_plus = a * constraint_c_margin(1.0, t_p, vth, 0.0, 0.0)
        room = constraint_c_margin(1.0, t_p, vth, eta_plus, 0.0)
        if not room > 0:
            continue
        eta_minus = b * room
        points.append({"tau": 1.0, "t_p": float(t_p), "vth": float(vth), "eta_plus": float(eta_plus), "eta_minus": float(eta_minus)})
    return points
