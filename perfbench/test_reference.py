"""Tests of the benchmark's independent reference and output checker.

Run from the root of a checkout:  python3 -m pytest perfbench/test_reference.py
"""

import numpy as np
import pytest

import reference
from instance import Instance, cost, cyclic


def simulate(inst, x0, u):
    x = np.empty((inst.T + 1, inst.n))
    x[0] = x0
    for t in range(inst.T):
        x[t + 1] = inst.A @ x[t] + inst.B @ u[t]
    return x


def free_endpoint_instance(seed=3, n=3, m=2, T=6):
    """A regular instance without endpoint constraints, so that any
    input sequence gives a feasible trajectory."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n + m + 1, n + m))
    pi = W.T @ W
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    return Instance(A=0.8 * rng.normal(size=(n, n)) / np.sqrt(n),
                    B=rng.normal(size=(n, m)), Q=pi[:n, :n], S=pi[:n, n:],
                    R=pi[n:, n:], V0=np.zeros((0, n)), VT=np.zeros((0, n)),
                    v=np.zeros(0), H=Wh.T @ Wh, h0=rng.normal(size=n),
                    hT=rng.normal(size=n), T=T)


@pytest.mark.parametrize("h, T", [((1.0, 2.0), 3), ((-0.5, 1.5), 40), ((2.0, -3.0), 300)])
def test_reference_meets_cyclic_closed_form(h, T):
    inst = cyclic(h, T)
    opt = reference.solve(inst)
    assert opt.cost == pytest.approx(2 * h[1] ** 2 / 3, rel=1e-9)
    assert reference.cyclic_faults(h, opt.x[0], opt.cost) == []
    assert reference.trajectory_faults(inst, opt.x, opt.u, opt.cost, opt.cost) == []


def test_reference_optimum_beats_perturbed_inputs():
    inst = free_endpoint_instance()
    opt = reference.solve(inst)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = opt.u + 1e-2 * rng.normal(size=opt.u.shape)
        assert cost(inst, simulate(inst, opt.x[0], u), u) > opt.cost


def test_checker_rejects_perturbed_trajectory():
    inst = cyclic((1.0, 2.0), 5)
    opt = reference.solve(inst)
    x = opt.x.copy()
    x[2, 0] += 1e-3
    faults = reference.trajectory_faults(inst, x, opt.u, opt.cost, opt.cost)
    assert "dynamics" in faults


def test_checker_rejects_boundary_violation():
    inst = cyclic((1.0, 2.0), 5)
    opt = reference.solve(inst)
    x = simulate(inst, opt.x[0] + np.array([0.0, 1e-3]), opt.u)
    faults = reference.trajectory_faults(inst, x, opt.u, cost(inst, x, opt.u),
                                         opt.cost)
    assert "boundary" in faults


def test_checker_rejects_wrong_cost():
    inst = free_endpoint_instance()
    opt = reference.solve(inst)
    assert reference.trajectory_faults(inst, opt.x, opt.u, opt.cost * (1 + 1e-4),
                                       opt.cost) == ["reported-cost"]
    # A feasible but suboptimal trajectory, reported with its true cost.
    u = opt.u.copy()
    u[0] += 0.1
    x = simulate(inst, opt.x[0], u)
    faults = reference.trajectory_faults(inst, x, u, cost(inst, x, u), opt.cost)
    assert faults == ["cost-vs-reference"]
    assert not reference.costs_match(opt.cost * (1 + 1e-4), opt.cost)


def test_cyclic_check_rejects_wrong_closed_form():
    h = (1.0, 2.0)
    assert reference.cyclic_faults(h, [0.5, 2.0], 2 * h[1] ** 2 / 3) == ["closed-form-x0"]
    assert reference.cyclic_faults(h, [1.0, 4 / 3], 4.0) == ["closed-form-cost"]
