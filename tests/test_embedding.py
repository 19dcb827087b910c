import dataclasses
import tracemalloc

import numpy as np
import pytest

from mpscollision import embedding, models, mps
from mpscollision.embedding import (
    CollisionModel,
    kraus_operators,
    observable_series,
    collide,
    trace_bond,
    trajectory,
)
from mpscollision.linalg import _collide, dagger, kron
from mpscollision.models import ModelSpec, build_model
from mpscollision.mps import BondState, decorrelate, evolve_bond_state, right_canonicalize
from mpscollision.master_equation import build_kernel_table, kernel_scan, single_collision_channel
from mpscollision.oracle import OracleRun, brute_force_trajectory

from conftest import partial_trace, random_density, random_spin1_chain


def zoo_models():
    return {
        "aklt": build_model(ModelSpec("aklt"), g_tau=0.5),
        "cluster": build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5),
        "two_photon": build_model(
            ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3),
        "ghz": build_model(ModelSpec("ghz", {"n_sites": 8}), g_tau=0.4),
        "single_photon": build_model(ModelSpec("single_photon", {"n_sites": 8}), g_tau=0.4),
    }


def primitive_models():
    """A complex single_photon chain and the decorrelated two_photon twin (ancilla > 1)."""
    amps = np.exp(-np.arange(6) / 2.0) * np.exp(1j * 0.9 * np.arange(6) ** 2)
    inter = models.interaction("exchange", 0.45, 3)
    single = CollisionModel(env=models.single_photon_env(amps), unitary=inter.unitary,
                            d_system=2, mode_dim=3, g_tau=0.45)
    two_photon = zoo_models()["two_photon"]
    twin = dataclasses.replace(two_photon, env=decorrelate(two_photon.env, length=6))
    assert twin.env.ancilla_dim > 1
    return {"single_photon_complex": single, "two_photon_decorrelated": twin}


def test_model_validation():
    env = models.aklt_env()
    with pytest.raises(ValueError):
        CollisionModel(env=env, unitary=np.eye(6) * 1.2, d_system=2, mode_dim=3, g_tau=0.1)
    with pytest.raises(ValueError):
        CollisionModel(env=env, unitary=np.eye(4), d_system=2, mode_dim=2, g_tau=0.1)


def test_model_refuses_a_nan_unitary():
    # Its unitarity residual is NaN, which no comparison with the tolerance lets through.
    with pytest.raises(ValueError, match="not unitary"):
        CollisionModel(env=models.aklt_env(), unitary=np.full((6, 6), np.nan), d_system=2,
                       mode_dim=3, g_tau=0.1)


@pytest.mark.parametrize("g_tau,tau,why", [
    (np.nan, None, "g_tau must be finite"),   # tau would default to 1.0
    (np.nan, 0.5, "g_tau must be finite"),
    (np.inf, None, "g_tau must be finite"),
    (-np.inf, 0.5, "g_tau must be finite"),
    (0.5, np.nan, "tau must be a finite number > 0"),
    (0.5, -0.5, "tau must be a finite number > 0"),
    (0.5, 0.0, "tau must be a finite number > 0"),
    (0.5, np.inf, "tau must be a finite number > 0"),
])
def test_model_refuses_a_non_finite_coupling_or_step(g_tau, tau, why):
    with pytest.raises(ValueError, match=why):
        dataclasses.replace(zoo_models()["aklt"], g_tau=g_tau, tau=tau)


def test_the_time_axis_does_not_follow_the_sign_of_the_coupling():
    aklt = zoo_models()["aklt"]
    plus, minus, zero = (dataclasses.replace(aklt, g_tau=g, tau=None) for g in (0.5, -0.5, 0.0))
    assert plus.tau == minus.tau == 0.5 and zero.tau == 1.0
    assert plus.g == -minus.g == 1.0


def test_kraus_identity_unitary():
    env = models.aklt_env()
    model = CollisionModel(env=env, unitary=np.eye(6), d_system=2, mode_dim=3, g_tau=0.0)
    ops = kraus_operators(model, 0)
    for j, a in enumerate(ops):
        want = kron(np.eye(2), env.sites[0][j].T)
        assert np.max(np.abs(a - want)) < 1e-14


def test_kraus_shapes_aklt():
    model = build_model(ModelSpec("aklt"), g_tau=0.5)
    ops = kraus_operators(model, 0)
    assert len(ops) == 3
    assert all(a.shape == (4, 4) for a in ops)
    comp = sum(dagger(a) @ a for a in ops)
    assert np.max(np.abs(comp - np.eye(4))) < 1e-13


def test_kraus_shapes_two_photon_padded():
    model = zoo_models()["two_photon"]
    ops = kraus_operators(model, 0)
    assert len(ops) == 3  # one per output mode level
    assert all(a.shape == (6, 6) for a in ops)
    comp = sum(dagger(a) @ a for a in ops)
    assert np.max(np.abs(comp - np.eye(6))) < 1e-13


def test_kraus_completeness_all_zoo():
    for name, model in zoo_models().items():
        k_top = 50 if model.env.homogeneous else model.env.length
        for k in range(k_top):
            ops = kraus_operators(model, k)
            dim = ops[0].shape[1]
            comp = sum(dagger(a) @ a for a in ops)
            assert np.max(np.abs(comp - np.eye(dim))) < 1e-12, (name, k)


def kron_kraus_reference(model, k):
    """The Kraus stack through the ancilla-extended unitary kron(U, I_anc)."""
    b = model.env.site(k)
    dl, dr = b.shape[1], b.shape[2]
    d_s, m_eff = model.d_system, model.effective_mode_dim(k)
    u4 = kron(model.base_unitary(k), np.eye(model.env.ancilla_dim))
    u4 = u4.reshape(d_s, m_eff, d_s, m_eff)
    bpad = np.zeros((m_eff, dl, dr), dtype=complex)
    bpad[: b.shape[0]] = b
    ops = np.einsum("sqtp,pab->qsbta", u4, bpad)
    return ops.reshape(m_eff, d_s * dr, d_s * dl)


@pytest.mark.parametrize("name", ["aklt", "two_photon", "cluster"])
def test_kraus_stack_matches_kron_reference_with_ancilla(name):
    base = zoo_models()[name]
    twin = dataclasses.replace(base, env=decorrelate(base.env, length=6))
    assert twin.env.ancilla_dim in (2, 3)
    for k in range(6):
        ops = kraus_operators(twin, k)
        assert np.array_equal(ops, kron_kraus_reference(twin, k))
        comp = np.einsum("jba,jbc->ac", ops.conj(), ops)
        assert np.max(np.abs(comp - np.eye(ops.shape[2]))) < 1e-12
    # the undecorrelated chain (ancilla 1) goes through the same contraction
    assert np.array_equal(kraus_operators(base, 0), kron_kraus_reference(base, 0))


def stepwise_reference(model, rho0, k_max):
    """tr_bond R(k) for k = 0..k_max, one ``embedding.collide`` per collision with the
    Kraus stack built every step."""
    r = kron(np.asarray(rho0, dtype=complex), model.env.chi0)
    reference = [trace_bond(r, model.d_system)]
    for k in range(k_max):
        r = embedding.collide(kraus_operators(model, k), r)
        reference.append(trace_bond(r, model.d_system))
    return reference


def transfer_reference(model, rho0, k_max):
    """tr_bond R(k) for k = 0..k_max, one product vec R A per collision (row-major vec) with
    the joint transfer matrix A of the chain's one channel."""
    a = mps._transfer_matrix(kraus_operators(model, 0))
    r = kron(np.asarray(rho0, dtype=complex), model.env.chi0)
    reference = [trace_bond(r, model.d_system)]
    for _ in range(k_max):
        r = (r.reshape(1, -1) @ a).reshape(r.shape)
        reference.append(trace_bond(r, model.d_system))
    return reference


def walk_references(model, rho0, k_max, product):
    """The bits ``trajectory`` gives, and the Kraus-sum walk: the transfer product on a chain
    that takes it (``product``), else the Kraus sum itself."""
    kraus_sum = stepwise_reference(model, rho0, k_max)
    return (transfer_reference(model, rho0, k_max) if product else kraus_sum), kraus_sum


def relative_gap(states, reference):
    """Largest entry of any state's difference from the reference, over the reference's largest."""
    gap = max(np.max(np.abs(a - b)) for a, b in zip(states, reference))
    return gap / max(np.max(np.abs(b)) for b in reference)


def random_inhomogeneous_model(rng, n_sites):
    tensors = [rng.normal(size=(2, min(2 ** k, 4, 2 ** (n_sites - k)),
                                min(2 ** (k + 1), 4, 2 ** (n_sites - k - 1))))
               for k in range(n_sites)]
    inter = models.interaction("exchange", 0.4, 2)
    return CollisionModel(env=right_canonicalize(tensors), unitary=inter.unitary,
                          d_system=2, mode_dim=2, g_tau=0.4)


def channel_reuse_cases():
    aklt = build_model(ModelSpec("aklt"), g_tau=0.5)
    twin = dataclasses.replace(aklt, env=decorrelate(aklt.env))
    assert twin.env.homogeneous and twin.env.ancilla_dim > 1
    u_a, u_b = (models.interaction("heisenberg", gt).unitary for gt in (0.2, 0.5))
    repeated = CollisionModel(env=aklt.env, unitary=(u_a, u_a, u_b, u_b, u_b, u_a, u_b),
                              d_system=2, mode_dim=3, g_tau=0.3)
    return [
        pytest.param(aklt, 50, 1, True, id="aklt"),
        pytest.param(twin, 50, 1, True, id="aklt_decorrelated"),
        pytest.param(zoo_models()["ghz"], 8, 3, False, id="ghz"),   # first, bulk and last sites
        pytest.param(random_inhomogeneous_model(np.random.default_rng(7), 6), 6, 6, False,
                     id="inhomogeneous"),
        pytest.param(repeated, 7, 4, False, id="repeated_unitaries"),   # runs a a | b b b | a | b
    ]


@pytest.mark.parametrize("model,k_max,builds,product", channel_reuse_cases())
def test_trajectory_builds_each_channel_once(monkeypatch, model, k_max, builds, product):
    rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
    reference, kraus_sum = walk_references(model, rho0, k_max, product)

    built = []   # site channels, however many one einsum builds
    kraus_run = embedding._kraus_run

    def counted(model, ks):
        built.extend(ks)
        return kraus_run(model, ks)

    monkeypatch.setattr(embedding, "_kraus_run", counted)
    states = trajectory(model, rho0, k_max)
    assert len(built) == builds
    assert len(states) == k_max + 1
    assert all(np.array_equal(a, b) for a, b in zip(states, reference))
    assert relative_gap(states, kraus_sum) <= 1e-14


@pytest.mark.parametrize("name", ["single_photon_complex", "two_photon_decorrelated"])
def test_collide_and_trace_bond_match_references(name, rng):
    model = primitive_models()[name]
    d_s = model.d_system
    for k in range(model.env.length):
        ops = kraus_operators(model, k)
        b = model.env.site(k)
        assert ops.shape == (model.effective_mode_dim(k), d_s * b.shape[2], d_s * b.shape[1])
        n_in = ops.shape[2]
        stack = rng.normal(size=(4, n_in, n_in)) + 1j * rng.normal(size=(4, n_in, n_in))
        got = collide(ops, stack)
        for x, out in zip(stack, got):
            want = sum(a @ x @ dagger(a) for a in ops)
            assert np.max(np.abs(out - want)) < 1e-13
            assert np.max(np.abs(collide(ops, x) - want)) < 1e-13
        for out, traced in zip(got, trace_bond(got, d_s)):
            want = partial_trace(out, (d_s, b.shape[2]), keep=(0,))
            assert np.max(np.abs(traced - want)) < 1e-14


def test_step_identity_unitary_preserves_system():
    env = models.aklt_env()
    model = CollisionModel(env=env, unitary=np.eye(6), d_system=2, mode_dim=3, g_tau=0.0)
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    r = collide(kraus_operators(model, 0), kron(rho0, env.chi0))
    assert np.max(np.abs(trace_bond(r, 2) - rho0)) < 1e-14


def test_step_bond_marginal_is_free_evolution():
    env = models.two_photon_env(0.25, 0.04)
    model = CollisionModel(env=env, unitary=np.eye(6), d_system=2, mode_dim=3, g_tau=0.0)
    r = kron(np.eye(2) / 2, env.chi0)
    chi = env.initial_bond_state()
    for k in range(4):
        r = collide(kraus_operators(model, k), r)
        chi = evolve_bond_state(env, chi)
        bond = partial_trace(r, (2, env.site(k).shape[2]), keep=(1,))
        assert np.max(np.abs(bond - chi.matrix)) < 1e-13


def test_single_collision_matches_oracle():
    from mpscollision.oracle import OracleRun, brute_force_trajectory

    model = zoo_models()["two_photon"]
    rho0 = models.named_initial_state("ground")
    run = OracleRun(model, rho0, n_sites=4, k_max=1)
    want = brute_force_trajectory(run)[1]
    got = trace_bond(collide(kraus_operators(model, 0), kron(rho0, model.env.chi0)), 2)
    assert np.max(np.abs(got[1, 1] - want[1, 1])) < 1e-12
    assert np.max(np.abs(got - want)) < 1e-12


def test_system_state_product_case(rng):
    model = zoo_models()["aklt"]
    rho = random_density(rng, 2)
    (state,) = trajectory(model, rho, 0)
    assert np.max(np.abs(state - rho)) < 1e-14


def test_trajectory_zero_coupling_constant(rng):
    model = build_model(ModelSpec("aklt"), g_tau=0.0)
    rho = random_density(rng, 2)
    for out in trajectory(model, rho, 10):
        assert np.max(np.abs(out - rho)) < 1e-13


def test_step_cptp_random_states(rng):
    for name, model in zoo_models().items():
        bond = model.env.chi0.shape[0]
        for _ in range(50):
            rho = random_density(rng, model.d_system * bond)
            out = collide(kraus_operators(model, 0), rho)
            assert abs(np.trace(out) - 1.0) < 1e-12, name
            lo = np.linalg.eigvalsh(0.5 * (out + dagger(out)))[0]
            assert lo > -1e-10, name


def test_trajectory_beyond_finite_environment(refuse_work):
    model = zoo_models()["ghz"]
    refuse_work("joint")   # refused before the first collision
    with pytest.raises(IndexError, match="collision 8 beyond environment length 8"):
        trajectory(model, models.named_initial_state("ground"), 9)


SHORT_TUPLE_ROUTES = {
    "trajectory": (lambda model, rho: trajectory(model, rho, 5), IndexError),
    "build_kernel_table": (lambda model, rho: build_kernel_table(model, 5), IndexError),
    "kernel_scan": (lambda model, rho: kernel_scan(model, 4, 2), IndexError),
    "oracle": (lambda model, rho: brute_force_trajectory(OracleRun(model, rho, 5, 5)),
               ValueError),
}


@pytest.mark.parametrize("route", SHORT_TUPLE_ROUTES)
def test_short_unitary_tuple_is_refused_before_any_work(refuse_work, route):
    # Three unitaries on the unbounded aklt chain define collisions 0..2 only: each route
    # refuses a horizon of 5 with the exception it raises for a short chain, before the
    # first bond step, collision or environment contraction.
    aklt = build_model(ModelSpec("aklt"), g_tau=0.5)
    model = dataclasses.replace(aklt, unitary=(aklt.unitary,) * 3)
    call, error = SHORT_TUPLE_ROUTES[route]
    refuse_work("bond", "joint", "oracle")
    with pytest.raises(error, match="no unitary for step 3"):
        call(model, models.named_initial_state("plus"))


def test_trajectory_rejects_a_wrong_shape_state(refuse_work):
    model = zoo_models()["aklt"]
    refuse_work("joint")   # refused before the first collision
    with pytest.raises(ValueError, match=r"system state shape \(3, 3\), expected \(2, 2\)"):
        trajectory(model, np.eye(3) / 3, 4)


def bond_change_models():
    """Finite chains whose bond dimension changes along the run."""
    rng = np.random.default_rng(11)
    n = 14
    bonds = [min(2 ** k, 32, 2 ** (n - k)) for k in range(n + 1)]   # 1 -> 32 -> 1
    tensors = [rng.normal(size=(2, bonds[k], bonds[k + 1]))
               + 1j * rng.normal(size=(2, bonds[k], bonds[k + 1])) for k in range(n)]
    wide = CollisionModel(env=right_canonicalize(tensors),
                          unitary=models.interaction("exchange", 0.4, 2).unitary,
                          d_system=2, mode_dim=2, g_tau=0.4)
    assert max(b.shape[2] for b in wide.env.sites) == 32
    return {
        "ghz": build_model(ModelSpec("ghz", {"n_sites": 20}), g_tau=0.4),
        "single_photon": build_model(ModelSpec("single_photon", {"n_sites": 20}), g_tau=0.4),
        "random_1_32_1": wide,
    }


def parent_collide(ops, x, *_):
    """The collision map with the adjoint stack and the sum formed inside every call."""
    return np.sum(ops @ x[..., None, :, :] @ ops.conj().transpose(0, 2, 1), axis=-3)


def walk_models():
    """(model, k_max): the bond-changing chains, three homogeneous chains and the
    per-site decorrelated twins of the two that are not stationary."""
    zoo = zoo_models()
    cases = {name: (model, model.env.length) for name, model in bond_change_models().items()}
    for name in ("aklt", "cluster", "two_photon"):
        cases[name] = (zoo[name], 40)
    for name in ("cluster", "two_photon"):
        twin = dataclasses.replace(zoo[name], env=decorrelate(zoo[name].env, length=40))
        assert not twin.env.homogeneous
        cases[name + "_decorrelated"] = (twin, 40)
    return cases


def stack_bytes(model, k):
    b = model.env.site(k)
    return 16 * model.effective_mode_dim() * model.d_system ** 2 * b.shape[1] * b.shape[2]


@pytest.mark.parametrize("budget", [None, 1024])
@pytest.mark.parametrize("name", list(walk_models()))
def test_trajectory_equals_chain_of_steps(monkeypatch, name, budget):
    # The walk's collisions into trace blocks and its Kraus stacks built per run of
    # sites give the bits of one per-pair collide, with a stack built for every site; on
    # the homogeneous chains, those of one vec R A product per step, and the per-pair
    # collides' within 1e-14.
    model, k_max = walk_models()[name]
    rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
    with monkeypatch.context() as patch:
        patch.setattr(embedding, "collide", parent_collide)
        reference, kraus_sum = walk_references(model, rho0, k_max,
                                               name in ("aklt", "cluster", "two_photon"))

    if budget is not None:
        # Trace blocks of a few states, and Kraus builds of two stacks of the widest bond.
        monkeypatch.setattr(embedding, "_TRACE_BATCH_BYTES", budget)
        monkeypatch.setattr(embedding, "_KRAUS_BATCH_BYTES",
                            2 * max(stack_bytes(model, k) for k in range(k_max)))
    batches, builds = [], []

    def recorded(x, d_system):
        batches.append((len(x), x.nbytes))
        return trace_bond(x, d_system)

    kraus_run = embedding._kraus_run

    def built(model, ks):
        builds.append(kraus_run(model, ks))
        return builds[-1]

    monkeypatch.setattr(embedding, "trace_bond", recorded)
    monkeypatch.setattr(embedding, "_kraus_run", built)
    states = trajectory(model, rho0, k_max)
    assert len(states) == k_max + 1
    assert all(np.array_equal(a, b) for a, b in zip(states, reference))
    assert relative_gap(states, kraus_sum) <= 1e-14
    assert sum(n for n, _ in batches) == k_max + 1
    # Each batch and each build fits its byte budget, unless it is one state or stack larger.
    assert all(size <= embedding._TRACE_BATCH_BYTES or n == 1 for n, size in batches)
    assert all(ops.nbytes <= embedding._KRAUS_BATCH_BYTES or len(ops) == 1 for ops in builds)
    if budget is not None or name in bond_change_models():
        assert len(batches) > 1   # a block ends mid-run, or where the bond changes
    if name.endswith("_decorrelated"):   # one run of 40 distinct sites
        assert len(builds) == (20 if budget else 1)


def route_cases():
    """Chain name -> (model, whether one X walks by the joint transfer product)."""
    zoo = zoo_models()
    controlled = build_model(ModelSpec("aklt"), g_tau=0.5, interaction_name="controlled")
    cases = {}
    for name, model in (("aklt_heisenberg", zoo["aklt"]), ("aklt_controlled", controlled)):
        cases[name] = (model, True)
        cases[name + "_decorrelated"] = (dataclasses.replace(model, env=decorrelate(model.env)),
                                         True)
    for name in ("two_photon", "cluster"):
        cases[name] = (zoo[name], True)
        twin = dataclasses.replace(zoo[name], env=decorrelate(zoo[name].env, length=40))
        cases[name + "_decorrelated"] = (twin, False)
    for name in ("ghz", "single_photon"):
        cases[name] = (zoo[name], False)
    for name, model in bond_change_models().items():
        cases["bond_change_" + name] = (model, False)
    cases["unitary_tuple"] = (dataclasses.replace(zoo["aklt"], unitary=(zoo["aklt"].unitary,) * 40),
                              False)
    return cases


@pytest.mark.parametrize("name", list(route_cases()))
def test_walk_route_table(monkeypatch, name):
    # One X or a stack of X on a homogeneous chain of one unitary whose joint transfer matrix
    # pays for itself steps by one _transfer_sum per collision and never collides; every other
    # chain collides each step and never takes the product, whatever the operand.
    model, product = route_cases()[name]
    assert embedding._joint_transfer(model) == product
    k_max = min(40, model.env.length or 40)
    calls = {"_collide": 0, "_transfer_sum": 0}
    for fn in calls:
        def counted(*args, _fn=fn, _original=getattr(embedding, fn)):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(embedding, fn, counted)
    trajectory(model, models.named_initial_state("plus"), k_max)
    assert calls == {"_collide": k_max * (not product), "_transfer_sum": k_max * product}
    calls.update(_collide=0, _transfer_sum=0)
    stack = np.stack([kron(np.eye(2) / 2, model.env.chi0)] * 3)
    list(embedding._traced_walk(model, stack, range(k_max)))
    assert calls == {"_collide": k_max * (not product), "_transfer_sum": k_max * product}


@pytest.mark.parametrize("d_bond", range(1, 7))
def test_transfer_product_tracks_the_kraus_sum_on_random_chains(rng, d_bond):
    # On random homogeneous spin-1 chains the joint transfer product stays within 1e-13 of
    # the Kraus-sum walk at K = 300, and the walk gives the product's bits where it pays
    # (n = 2 D <= 2 m_eff = 6), the Kraus sum's elsewhere.
    model = random_spin1_chain(rng, d_bond)
    rho0 = random_density(rng, 2)
    product, kraus_sum = transfer_reference(model, rho0, 300), stepwise_reference(model, rho0, 300)
    assert relative_gap(product, kraus_sum) <= 1e-13
    assert embedding._joint_transfer(model) == (d_bond <= 3)
    reference = product if d_bond <= 3 else kraus_sum
    assert all(np.array_equal(a, b) for a, b in zip(trajectory(model, rho0, 300), reference))


@pytest.mark.parametrize("name", ["aklt", "two_photon", "cluster", "single_photon"])
def test_decorrelating_a_twin_keeps_its_ancilla_and_its_trajectory(name):
    # decorrelate traces a twin's old ancilla out of each marginal before purifying it again,
    # so the twin of a twin has the twin's ancilla dimension and, to roundoff, its dynamics.
    model = zoo_models()[name]
    twin = decorrelate(model.env, length=8)
    again = decorrelate(twin, length=8)
    assert twin.ancilla_dim > 1
    assert again.ancilla_dim == twin.ancilla_dim
    rho0 = models.named_initial_state("plus")
    want = trajectory(dataclasses.replace(model, env=twin), rho0, 8)
    got = trajectory(dataclasses.replace(model, env=again), rho0, 8)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want, strict=True)) <= 1e-13


def test_kraus_runs_equal_per_site_builds():
    # Stacks built by one einsum per run of equal-shape sites, in runs cut by the
    # byte budget, hold the bits of a kraus_operators call per site, and those of
    # the per-site contraction through kron(U, I_anc).
    model = bond_change_models()["random_1_32_1"]
    ks = range(model.env.length)
    shapes = [model.env.site(k).shape for k in ks]
    for k in ks:
        end = k + 1
        while end < len(ks) and shapes[end] == shapes[k]:
            end += 1
        got = embedding._kraus_run(model, range(k, end))
        for ops, j in zip(got, range(k, end)):
            assert np.array_equal(ops, kraus_operators(model, j)), (k, j)
            assert np.array_equal(ops, kron_kraus_reference(model, j)), (k, j)
    for budget in (1, 2 * stack_bytes(model, 7), embedding._KRAUS_BATCH_BYTES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_KRAUS_BATCH_BYTES", budget)
            channels = list(embedding._kraus_stacks(model, ks))
        for k, (got, got_dag) in zip(ks, channels):
            ops = kraus_operators(model, k)
            assert np.array_equal(got, ops), (budget, k)
            assert np.array_equal(got_dag, ops.conj().transpose(0, 2, 1)), (budget, k)


def kraus_stack_cases():
    """Each distinct Kraus stack of the bond-changing chains, cluster (m_eff = 5) and two_photon."""
    zoo = zoo_models()
    chains = dict(bond_change_models(), cluster=zoo["cluster"], two_photon=zoo["two_photon"])
    for name, model in chains.items():
        shapes = set()
        for k in range(model.env.length or 1):
            ops = kraus_operators(model, k)
            if ops.shape not in shapes:
                shapes.add(ops.shape)
                yield name, ops


def stack_regroup(ops, x):
    """The stack path written out: T[..., c, j, b] = (A_j X)[b, c] by one GEMM per X, then one
    GEMM over (j, c), j slow, with the stacked A_j^* for every X."""
    m, n_out, n_in = ops.shape
    t = x.swapaxes(-1, -2) @ ops.reshape(-1, n_in).T
    t = t.reshape(x.shape[:-2] + (n_in, m, n_out)).swapaxes(-1, -3).reshape(-1, m * n_in)
    right = ops.conj().transpose(0, 2, 1).reshape(-1, n_out)
    return (t @ right).reshape(x.shape[:-2] + (n_out, n_out))


@pytest.mark.parametrize("lead", [(), (4,), (3, 4)], ids=["one", "stack4", "stack3x4"])
def test_stacked_collide_equals_per_pair_products(lead):
    # One X collides as in the walk: rows stacked into one GEMM per operator and one per Kraus
    # index give the bits of one GEMM per (operator, Kraus index) pair, element by element.  A
    # stack takes one GEMM over (Kraus index, column) for all its X, the regroup written out in
    # stack_regroup, not the one-X arithmetic broadcast over it (whose bits differ on some of
    # these cases): each X gets the bits of _collide on a stack of that X alone, and the
    # per-pair products to 1e-15.
    rng = np.random.default_rng(7)
    seen, per_j_differs = set(), False
    for name, ops in kraus_stack_cases():
        n_in = ops.shape[2]
        x = rng.normal(size=lead + (n_in, n_in)) + 1j * rng.normal(size=lead + (n_in, n_in))
        got, want = collide(ops, x), parent_collide(ops, x)
        assert got.shape == want.shape == lead + (ops.shape[1],) * 2, (name, ops.shape)
        if lead:
            ops_dag = ops.conj().transpose(0, 2, 1)
            flat = x.reshape((-1,) + x.shape[-2:])
            alone = [_collide(ops, ops_dag, one[None]) for one in flat]
            assert np.array_equal(got, np.reshape(alone, got.shape)), (name, ops.shape)
            assert np.array_equal(got, stack_regroup(ops, x)), (name, ops.shape)
            per_j = np.reshape([collide(ops, one) for one in flat], got.shape)
            per_j_differs |= not np.array_equal(got, per_j)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (name, ops.shape)
        else:
            assert np.array_equal(got, want), (name, ops.shape)
        seen.add((ops.shape[0], ops.shape[1] == ops.shape[2]))
    assert {(5, True), (3, True), (2, True), (2, False)} <= seen
    assert per_j_differs or not lead


@pytest.mark.parametrize("name", ["cluster", "two_photon", "random_1_32_1"])
def test_collide_peak_memory_is_two_products(name):
    # _guard_kernel_threads budgets 2 m_eff thread stacks beyond _collide's
    # input: the left products T[..., c, j, b] = (A_j X)[b, c] and their copy
    # regrouped with j slow; the output comes once T is freed.  Measured with a
    # contiguous adjoint stack built outside the call, so its stacked A_j^* is a view.
    model = dict(bond_change_models(), **zoo_models())[name]
    k = 7 if name == "random_1_32_1" else 0   # a square 32 x 32 bond
    ops = kraus_operators(model, k)
    m, n_out, n_in = ops.shape
    assert n_out == n_in
    x = np.ones((max(4, 2 ** 16 // (16 * n_in ** 2)), n_in, n_in), dtype=complex)   # >= 64 KiB
    ops_dag = np.ascontiguousarray(ops.conj().transpose(0, 2, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _collide(ops, ops_dag, x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.nbytes == x.nbytes
    headers = 4096   # ndarray objects, shapes and strides, not thread entries
    assert 2 * m * x.nbytes <= peak <= 2 * m * x.nbytes + headers, peak / x.nbytes


def test_decorrelated_embedding_equals_channel_composition():
    base = zoo_models()["two_photon"]
    dec_env = decorrelate(base.env, length=12)
    model = CollisionModel(env=dec_env, unitary=base.unitary, d_system=2,
                           mode_dim=3, g_tau=base.g_tau, hamiltonian=base.hamiltonian)
    traj = trajectory(model, models.named_initial_state("ground"), 12)
    rho = models.named_initial_state("ground")
    for k in range(12):
        phi = single_collision_channel(model, BondState(k, np.eye(1, dtype=complex)))
        rho = phi.apply(rho)
        assert np.max(np.abs(rho - traj[k + 1])) < 1e-12


def test_per_step_unitary_list():
    from mpscollision.oracle import OracleRun, brute_force_trajectory

    env = models.ghz_env(4)
    u_list = tuple(models.interaction("exchange", gt, 3).unitary
                   for gt in (0.2, 0.5, 0.1, 0.4))
    model = CollisionModel(env=env, unitary=u_list, d_system=2, mode_dim=3, g_tau=0.3)
    rho0 = models.named_initial_state("plus")
    embed = trajectory(model, rho0, 4)
    oracle = brute_force_trajectory(OracleRun(model, rho0, n_sites=4, k_max=4))
    for a, b in zip(embed, oracle):
        assert np.max(np.abs(a - b)) < 1e-12
    with pytest.raises(IndexError):
        trajectory(model, rho0, 5)


def test_decorrelated_finite_chain_equals_channel_composition():
    base = zoo_models()["ghz"]
    dec_env = decorrelate(base.env)
    assert dec_env.length == 8
    model = CollisionModel(env=dec_env, unitary=base.unitary, d_system=2,
                           mode_dim=3, g_tau=base.g_tau, hamiltonian=base.hamiltonian)
    traj = trajectory(model, models.named_initial_state("plus"), 8)
    rho = models.named_initial_state("plus")
    for k in range(8):
        phi = single_collision_channel(model, BondState(k, np.eye(1, dtype=complex)))
        rho = phi.apply(rho)
        assert np.max(np.abs(rho - traj[k + 1])) < 1e-12


def test_complex_tensors_vs_oracle():
    # complex site tensors distinguish transpose from adjoint in the Kraus
    # construction; the whole named zoo is real, so cover this explicitly
    from mpscollision.oracle import OracleRun, brute_force_trajectory

    amps = np.exp(-np.arange(7) / 2.0) * np.exp(1j * 0.9 * np.arange(7) ** 2)
    env = models.single_photon_env(amps)
    inter = models.interaction("exchange", 0.45, 3)
    model = CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                           g_tau=0.45, hamiltonian=inter.hamiltonian)
    rho0 = models.named_initial_state("plus")
    embed = trajectory(model, rho0, 7)
    oracle = brute_force_trajectory(OracleRun(model, rho0, n_sites=7, k_max=7))
    for a, b in zip(embed, oracle):
        assert np.max(np.abs(a - b)) < 1e-12


def test_complex_bond_density_vs_oracle(rng):
    # a non-diagonal complex chi0 distinguishes the two ways the initial
    # bond matrix can attach to the ket/bra tensor lines
    from mpscollision.mps import MpsEnvironment
    from mpscollision.oracle import OracleRun, brute_force_trajectory

    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    chi0 = x @ x.conj().T
    chi0 /= np.trace(chi0)
    env = MpsEnvironment(models.aklt_env().sites, chi0, homogeneous=True)
    inter = models.interaction("heisenberg", 0.5)
    model = CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                           g_tau=0.5, hamiltonian=inter.hamiltonian)
    rho0 = models.named_initial_state("ground")
    embed = trajectory(model, rho0, 6)
    oracle = brute_force_trajectory(OracleRun(model, rho0, n_sites=6, k_max=6))
    for a, b in zip(embed, oracle):
        assert np.max(np.abs(a - b)) < 1e-12


def test_observable_series_refuses_an_imaginary_part_over_1e_10():
    # tr(rho sigma_x) = rho_01 + rho_10 = i eps on a state with an anti-Hermitian residue.
    def state(eps):
        return np.array([[1.0, 0.5j * eps], [0.5j * eps, 0.0]])

    assert observable_series([state(1e-12)], models.SIGMA_X) == [0.0]
    with pytest.raises(ValueError, match="expectation at step 0 has imaginary part 1.000e-08"):
        observable_series([state(1e-8)], models.SIGMA_X)


def test_observable_series_basics():
    model = zoo_models()["two_photon"]
    states = trajectory(model, models.named_initial_state("ground"), 5)
    ones = observable_series(states, np.eye(2))
    assert np.max(np.abs(np.array(ones) - 1.0)) < 1e-12
    pops = observable_series(states, models.named_observable("excited_population"))
    assert abs(pops[0]) < 1e-14
    with pytest.raises(ValueError):
        observable_series(states, np.array([[0, 1], [0, 0]]))


def test_observable_series_refuses_a_nan_observable():
    with pytest.raises(ValueError, match="must be Hermitian"):
        observable_series([np.eye(2) / 2], np.full((2, 2), np.nan))
