import numpy as np
import pytest

from cdgbrinkman.assembly import assemble_system
from cdgbrinkman.mesh import generate_uniform_rectangular
from cdgbrinkman.problems import (RasterKappa, cavity_problem,
                                  constant_flow_problem, example1,
                                  load_kappa_raster, polynomial_patch,
                                  sample_raster_path)
from cdgbrinkman.solver import solve
from cdgbrinkman.weakgrad import Discretization


def assert_divergence_free(problem, rng):
    pts = rng.random((1000, 2))
    h = 1e-6
    ux = (problem.u(pts + [h, 0]) - problem.u(pts - [h, 0])) / (2 * h)
    uy = (problem.u(pts + [0, h]) - problem.u(pts - [0, h])) / (2 * h)
    div = ux[:, 0] + uy[:, 1]
    assert np.abs(div).max() < 1e-8
    g = problem.grad_u(pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12


def assert_momentum_balance(problem, rng, h):
    # f must equal -mu lap(u) + mu kinv u + grad p by five-point stencils
    # of step h
    mu = problem.mu
    pts = 0.1 + 0.8 * rng.random((10, 2))
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    lap = (problem.u(pts + ex) + problem.u(pts - ex)
           + problem.u(pts + ey) + problem.u(pts - ey)
           - 4 * problem.u(pts)) / h ** 2
    grad_p = np.column_stack([
        (problem.p(pts + ex) - problem.p(pts - ex)) / (2 * h),
        (problem.p(pts + ey) - problem.p(pts - ey)) / (2 * h),
    ])
    kinv = problem.kappa_inv(pts)
    fd = -mu * lap + mu * kinv[:, None] * problem.u(pts) + grad_p
    f = problem.f(pts)
    scale = np.abs(f).max()
    assert np.abs(fd - f).max() <= 1e-6 * max(1.0, scale)


# every manufactured factory, the polynomial ones also at mu != 1 and
# kappa0 != 1
MANUFACTURED = {
    "example1": example1,
    "example1-mu0.01-a1e4": lambda: example1(mu=0.01, a=1e4),
    **{f"patch{k}": (lambda k=k: polynomial_patch(k)) for k in (1, 2, 3)},
    **{f"patch{k}-mu0.7-kappa2": (lambda k=k: polynomial_patch(k, 0.7, 2.0))
       for k in (1, 2, 3)},
    "constant-flow": constant_flow_problem,
    "constant-flow-kappa5-mu0.3": lambda: constant_flow_problem(5.0, 0.3),
}
POLYNOMIAL = [name for name in MANUFACTURED if not name.startswith("ex")]


def test_example1_divergence_free(rng):
    assert_divergence_free(example1(), rng)


@pytest.mark.parametrize("name", POLYNOMIAL)
def test_polynomial_problem_divergence_free(name, rng):
    assert_divergence_free(MANUFACTURED[name](), rng)


@pytest.mark.parametrize("name", list(MANUFACTURED))
def test_grad_u_matches_finite_differences(name, rng):
    problem = MANUFACTURED[name]()
    pts = rng.random((200, 2))
    h = 1e-6
    fd = np.stack([(problem.u(pts + e) - problem.u(pts - e)) / (2 * h)
                   for e in ([h, 0.0], [0.0, h])], axis=-1)
    g = problem.grad_u(pts)
    assert g.shape == (len(pts), 2, 2)
    assert np.abs(fd - g).max() <= 1e-7 * max(1.0, np.abs(g).max())


def test_example1_pressure_values():
    problem = example1()
    val = problem.p(np.array([[1.0, 1.0]]))[0]
    assert val == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-15)
    # analytic zero mean over the unit square
    xs = (np.arange(200) + 0.5) / 200
    X, Y = np.meshgrid(xs, xs)
    mean = problem.p(np.column_stack([X.ravel(), Y.ravel()])).mean()
    assert abs(mean) < 1e-4


def test_example1_momentum_balance_finite_differences(rng):
    # step 3e-5 gives ~1e-7 truncation for the trigonometric fields
    for name in ("example1", "example1-mu0.01-a1e4"):
        assert_momentum_balance(MANUFACTURED[name](), rng, 3e-5)


@pytest.mark.parametrize("name", POLYNOMIAL)
def test_polynomial_problem_momentum_balance_finite_differences(name, rng):
    # the stencils are exact for u in P_3 and p in P_2, so a long step
    # keeps the roundoff small
    assert_momentum_balance(MANUFACTURED[name](), rng, 1e-2)


def test_example1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        example1(mu=0.0)
    with pytest.raises(ValueError):
        example1(a=-1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_solutions_divergence_free(k, rng):
    problem = polynomial_patch(k)
    pts = rng.random((1000, 2))
    g = problem.grad_u(pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12
    # zero-mean pressure
    xs = (np.arange(400) + 0.5) / 400
    X, Y = np.meshgrid(xs, xs)
    mean = problem.p(np.column_stack([X.ravel(), Y.ravel()])).mean()
    assert abs(mean) < 1e-5


@pytest.mark.parametrize("k, u, p", [
    (1, lambda x, y: (1 + x + y, 2 - x - y), lambda x, y: 0 * x),
    (2, lambda x, y: (3 * y * y + x * x, -3 * x * x - 2 * x * y),
     lambda x, y: x - 0.5),
    (3, lambda x, y: (4 * y ** 3 - x ** 3, -4 * x ** 3 + 3 * x * x * y),
     lambda x, y: x * x + y * y - 2 / 3),
])
def test_patch_fields_are_the_curl_of_the_stream_function(k, u, p, rng):
    # u = (d psi/dy, -d psi/dx) for the psi of README's problem table
    pts = rng.random((100, 2))
    problem = polynomial_patch(k)
    x, y = pts.T
    assert np.abs(problem.u(pts) - np.column_stack(u(x, y))).max() < 1e-13
    assert np.abs(problem.p(pts) - p(x, y)).max() < 1e-13


def test_raster_uniform_and_lookup():
    r = RasterKappa(np.ones((4, 4)))
    pts = np.random.default_rng(0).random((50, 2))
    assert np.all(r(pts) == 1.0)
    grid = RasterKappa(np.array([[1.0, 1e4], [1e4, 1.0]]))
    # row 0 is the top of the domain
    assert grid(np.array([[0.25, 0.25]]))[0] == 1e4
    assert grid(np.array([[0.75, 0.25]]))[0] == 1.0
    assert grid(np.array([[0.25, 0.75]]))[0] == 1.0
    assert grid(np.array([[0.75, 0.75]]))[0] == 1e4


def test_raster_bit_equal_within_cell():
    grid = RasterKappa(np.array([[2.0, 3.0], [5.0, 7.0]]))
    a = grid(np.array([[0.1, 0.8]]))[0]
    b = grid(np.array([[0.4999, 0.5001]]))[0]
    assert a == b


def test_raster_rejects_nonpositive():
    with pytest.raises(ValueError, match="row 1, col 0"):
        RasterKappa(np.array([[1.0, 2.0], [0.0, 3.0]]))


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_raster_csv_rejects_non_finite_entry(tmp_path, entry):
    path = tmp_path / "k.csv"
    path.write_text(f"2 2\n1 2\n3 {entry}\n")
    with pytest.raises(ValueError, match="row 1, col 1"):
        load_kappa_raster(path)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
def test_raster_rejects_empty_grid(shape):
    with pytest.raises(ValueError, match=(f"empty \\({shape[0]} rows, "
                                          f"{shape[1]} cols\\)")):
        RasterKappa(np.ones(shape))


def test_raster_csv_roundtrip(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("2 3\n1 2 3\n4 5 6\n")
    r = load_kappa_raster(path)
    assert r.rows == 2 and r.cols == 3
    assert r.vmin == 1.0 and r.vmax == 6.0


def test_raster_pgm_with_value_map(tmp_path):
    path = tmp_path / "k.pgm"
    path.write_text("P2\n# kappa-inv-map 1 100\n2 2\n255\n0 255\n255 0\n")
    r = load_kappa_raster(path)
    assert r.vmin == pytest.approx(1.0)
    assert r.vmax == pytest.approx(100.0)


# a header size that is not a positive integer, named with the file
BAD_RASTER_HEADERS = [
    ("k.csv", "-2 -3\n1 2 3 4 5 6\n", "header rows", "'-2'"),
    ("k.csv", "2 -3\n1 2 3 4 5 6\n", "header cols", "'-3'"),
    ("k.csv", "2.5 2\n1 2 3 4 5\n", "header rows", "'2.5'"),
    ("k.pgm", "P2\n-2 -3\n3\n0 1 2 3 0 1\n", "header width", "'-2'"),
    ("k.pgm", "P2\n2 -3\n3\n0 1 2 3 0 1\n", "header height", "'-3'"),
]
BAD_RASTER_IDS = ["csv-both", "csv-cols", "csv-fraction", "pgm-both",
                  "pgm-height"]


@pytest.mark.parametrize("name, text, field, token", BAD_RASTER_HEADERS,
                         ids=BAD_RASTER_IDS)
def test_raster_rejects_bad_header_size(tmp_path, name, text, field, token):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_kappa_raster(path)
    assert str(info.value) == (f"{path}: {field} must be a positive integer, "
                               f"got {token}")


def test_raster_csv_and_pgm_agree_row_zero_on_top(tmp_path):
    # an asymmetric field: flipping its rows changes every lookup below
    csv = tmp_path / "k.csv"
    csv.write_text("2 2\n1 2\n3 4\n")
    pgm = tmp_path / "k.pgm"
    pgm.write_text("P2\n# kappa-inv-map 1 4\n2 2\n3\n0 1\n2 3\n")
    # top-left, top-right, bottom-left, bottom-right quadrant centres
    pts = np.array([[0.25, 0.75], [0.75, 0.75], [0.25, 0.25], [0.75, 0.25]])
    expected = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(load_kappa_raster(csv)(pts), expected)
    assert np.array_equal(load_kappa_raster(pgm)(pts), expected)


@pytest.mark.parametrize("name", ["blocky", "vuggy", "fiber"])
def test_sample_rasters_span_four_orders(name):
    r = load_kappa_raster(sample_raster_path(name))
    assert r.vmax / r.vmin >= 1e4
    assert r.vmin > 0


def test_cavity_problem_setting():
    kappa = RasterKappa(np.ones((2, 2)))
    problem = cavity_problem(kappa, mu=0.01)
    pts = np.array([[0.0, 0.3], [1.0, 0.7], [0.5, 0.0], [0.5, 1.0]])
    g = problem.g(pts)
    assert np.allclose(g[:, 0], 1.0)
    assert np.allclose(g[:, 1], 0.0)
    assert np.abs(problem.f(pts)).max() == 0.0


def test_cavity_rhs_is_pure_lifting():
    kappa = RasterKappa(np.ones((2, 2)))
    problem = cavity_problem(kappa, mu=0.01)
    mesh = generate_uniform_rectangular(2)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, problem)
    # the load integral vanishes; every F entry comes from the boundary
    # lifting, which touches only cells within one layer of the boundary
    assert np.abs(system.F).max() > 0
    assert np.abs(system.G).max() > 0


def test_vuggy_end_to_end_solve():
    kappa = load_kappa_raster(sample_raster_path("vuggy"))
    problem = cavity_problem(kappa, mu=0.01)
    mesh = generate_uniform_rectangular(16)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, problem)
    sol = solve(system)
    assert sol.residual <= 1e-9
    assert np.isfinite(sol.u).all()
