"""The analog RC surrogate: crossings, jitter coverage, and model fitting.

The surrogate takes the exp-channel's own parameters. With a clean rail it
reproduces the channel algorithm exactly (it is the physics the exp-channel
closed form comes from). A small sine on the rail creates deviations between
model and "measurement" that the eta budget can absorb at low
previous-output-to-input delays but not at large ones.

Run:  python demos/demo_05_waveform_surrogate.py
"""

import math

import numpy as np

from involution import (
    DeviationResult,
    Disturbance,
    ExpChannelParams,
    Involution,
    apply_channel,
    bin_coverage,
    delta_min,
    deviation_analysis,
    exp_channel,
    fit_exp_channel,
    make_signal,
    synth_crossings,
)
from involution.waveform_lab import eta_minus_for

params = ExpChannelParams(tau=1.0, t_p=0.5, vth_norm=0.6)
df = exp_channel(params)

print("== the surrogate IS the channel (zero disturbance) ==")
stim = make_signal(0, [(0.0, 1), (2.0, 0), (2.8, 1), (5.5, 0)])
crossings = synth_crossings(params, Disturbance(), stim, 12.0)
out, _ = apply_channel(Involution(df), stim)
for (t_c, value), tr in zip(crossings, out.transitions):
    edge = "rising" if value else "falling"
    print(f"  {edge:7s} crossing {t_c:.9f} vs channel {tr.time:.9f} "
          f"(diff {abs(t_c - tr.time):.2e})")

print("\n== supply jitter vs the eta budget ==")
eta_plus = 0.02 * delta_min(df)
eta_minus = eta_minus_for(df, eta_plus)
print(f"eta_plus = {eta_plus:.4f} (2% of delta_min), eta_minus = {eta_minus:.4f} from the budget formula")
jitter = Disturbance(amplitude_fraction=0.01, period=2.0)
rng = np.random.default_rng(7)
samples = []
for _ in range(8):
    for dT in -0.45 + np.logspace(np.log10(0.05), np.log10(4.45), 25):
        for stim in (
            make_signal(0, [(0.0, 1), (df.delta_inf_up + dT, 0)]),
            make_signal(1, [(0.0, 0), (df.delta_inf_down + dT, 1)]),
        ):
            crossings = synth_crossings(params, jitter, stim, 30.0, rng=rng)
            samples.extend(s for s in deviation_analysis(stim, crossings, df) if math.isfinite(s.T))
print(f"{len(samples)} paired (T, D) samples from single-pulse sweeps with random phases")
print(f"{'T range':>22s} {'n':>5s} {'coverage':>9s}")
for lo, hi, n, cov in bin_coverage(DeviationResult(samples, eta_minus, eta_plus)):
    print(f"  [{lo:7.3f}, {hi:7.3f}] {n:5d} {cov:9.3f}")
print("low-T deviations stay inside the budget; large-T ones increasingly escape it.")

print("\n== recovering channel parameters from delay samples ==")
ts = np.linspace(-0.8, 5.0, 40)
clean = [(float(t), df.up(float(t)), df.down(float(t))) for t in ts]
params, rms, _ = fit_exp_channel(clean)
print(f"noise-free self-fit: tau={params.tau:.6f} t_p={params.t_p:.6f} "
      f"vth={params.vth_norm:.6f} (rms {rms:.2e})")
rng = np.random.default_rng(3)
noisy_samples = [(t, du + rng.uniform(-1e-3, 1e-3), dd + rng.uniform(-1e-3, 1e-3)) for t, du, dd in clean]
params, rms, _ = fit_exp_channel(noisy_samples)
print(f"with +-1e-3 noise:   tau={params.tau:.6f} t_p={params.t_p:.6f} "
      f"vth={params.vth_norm:.6f} (rms {rms:.2e})")
