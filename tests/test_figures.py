"""The paper's artifacts (``repro figures``): each table's claim, and the
committed ``docs/figures.md`` equal to the command's output.

Claims the analysis tests already assert are not repeated here: the
Figure 1b ordering and 18-25% ratio (``tests/test_analysis_messages.py``
``TestPaperClaims``), and "a lower o agrees more, a higher o terminates
more" at n=100 (``tests/test_analysis_termination_agreement.py``).
"""

import contextlib
import io
import pathlib

import pytest

from repro.cli import main
from repro.harness import figures
from repro.harness.tables import format_cell

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "figures.md"


@pytest.fixture(scope="module")
def run():
    """One ``repro figures`` run: its stdout and every artifact it printed."""
    tables = {}

    def recorded(artifact):
        def call():
            tables[artifact.__name__] = artifact()
            return tables[artifact.__name__]

        return call

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(figures, "ARTIFACTS", tuple(map(recorded, figures.ARTIFACTS)))
        assert main(["figures"]) == 0
    return out.getvalue(), tables


@pytest.fixture(scope="module")
def tables(run):
    return run[1]


def column(table, header):
    _title, headers, rows = table
    return [row[headers.index(header)] for row in rows]


def test_committed_doc_is_current(run):
    """Regenerate with ``PYTHONPATH=src python -m repro figures > docs/figures.md``."""
    assert run[0] == DOC.read_text()


@pytest.mark.parametrize("name", [a.__name__ for a in figures.ARTIFACTS])
def test_artifact_table_is_well_formed(tables, name):
    """``render_table`` zips cells with headers, so a short or long row
    would print without error; every row must fill every column."""
    title, headers, rows = tables[name]
    assert title.splitlines()[0].strip()
    assert len(set(headers)) == len(headers)
    assert rows
    assert all(len(row) == len(headers) for row in rows)


def test_artifacts_printed_in_order(run):
    out, tables = run
    headings = [line[3:] for line in out.splitlines() if line.startswith("## ")]
    assert headings == [
        tables[a.__name__][0].splitlines()[0] for a in figures.ARTIFACTS
    ]


def test_fig1a_steps(tables):
    _title, _headers, rows = tables["fig1a_steps"]
    assert [row[1:] for row in rows] == [[3.0, 3.0, 8.0]] * len(rows)


def test_fig1b_measured_counts_match_formulas(tables):
    table = tables["fig1b_measured"]
    assert column(table, "PBFT measured") == column(table, "PBFT formula")
    assert column(table, "HS measured") == column(table, "HS formula")
    for measured, expected in zip(
        column(table, "ProBFT measured"), column(table, "ProBFT expected")
    ):
        assert abs(measured - expected) / expected < 0.05


def exact_curves(table):
    return [column(table, f"exact o={o}") for o in figures.O_VALUES]


def test_fig5_agreement_vs_n(tables):
    table = tables["fig5_agreement_vs_n"]
    for exact in exact_curves(table):
        assert all(v > 0.9 for v in exact)
        assert exact[-1] >= exact[0] - 1e-6
    assert column(table, "exact o=1.7")[-1] > 0.999


def test_fig5_termination_vs_n(tables):
    table = tables["fig5_termination_vs_n"]
    for o, exact in zip(figures.O_VALUES, exact_curves(table)):
        assert exact[-1] > exact[0]
        assert all(b - a > -0.02 for a, b in zip(exact, exact[1:]))
        # Lemma 4's bound never exceeds the chain (n/a outside its domain).
        for bound, value in zip(column(table, f"bound o={o}"), exact):
            assert not bound > value + 1e-9


def test_fig5_agreement_vs_f(tables):
    for exact in exact_curves(tables["fig5_agreement_vs_f"]):
        assert exact == sorted(exact, reverse=True)
        assert exact[0] > 0.9999


def test_fig5_termination_vs_f(tables):
    table = tables["fig5_termination_vs_f"]
    for exact in exact_curves(table):
        assert exact == sorted(exact, reverse=True)
    # The paper's panel collapses towards f/n = 0.3.
    exact = column(table, "exact o=1.7")
    assert exact[-1] < 0.7 * exact[0]


def test_fig5_attack_cell_has_no_violation(tables):
    table = tables["fig5_attack_cell"]
    assert column(table, "violations") == [0]
    assert column(table, "chain P(violation, any)")[0] > 0.5


def test_complexity_growth_exponents(tables):
    table = tables["complexity"]
    for measured, claimed in zip(
        column(table, "measured alpha"), column(table, "claimed alpha")
    ):
        assert abs(measured - claimed) < 0.15


def test_phase_split(tables):
    (propose, prepare, commit) = tables["phase_split"][2]
    assert propose[1] == propose[2]
    for _phase, measured, expected in (prepare, commit):
        assert abs(measured - expected) / expected < 0.08


def test_view_change_blowup(tables):
    table = tables["communication_bits"]
    blowups = column(table, "blow-up x")
    assert all(b > 3 for b in blowups)
    assert blowups[-1] > blowups[0]
    for good, bad in zip(
        column(table, "total bytes (good)"), column(table, "total bytes (view change)")
    ):
        assert bad > good
    assert all(view >= 2 for view in column(table, "last view"))


def test_constructions(tables):
    table = tables["constructions"]
    assert all(column(table, "consistent"))
    rate = dict(zip(column(table, "construction"), column(table, "decisions/time")))
    assert rate["SMR (pipeline=4)"] > rate["SMR (sequential)"]
    assert rate["Streamlined"] > 0.15
    decided = dict(zip(column(table, "construction"), column(table, "decisions")))
    assert decided["Streamlined"] >= 6 and decided["Streamlined, 3 silent"] >= 4
    # No view-change sub-protocol: not one Wish or NewLeader, faults or not.
    assert column(table, "Wish+NewLeader msgs")[2:] == [0, 0]


#: The ledger's claims, numbered as in the extended paper, in print order.
CLAIM_NUMBERS = [
    "Lemma 1", "Theorem 11", "Corollary 2", "Theorem 2/14", "Lemma 3",
    "Lemma 4", "Theorem 15", "Theorem 3/16", "Theorem 4/17", "Lemma 5",
    "Theorem 5/13", "Theorem 6/12", "Theorem 7/18", "Lemma 6",
    "Theorem 8/19", "Corollary 1",
]


def claim_rows(table, number):
    """``{o: {header: cell}}`` of one claim's rows."""
    _title, headers, rows = table
    return {
        row[1]: dict(zip(headers, row))
        for row in rows
        if row[0].split(":")[0] == number
    }


def test_paper_claims_one_row_per_claim_and_o(tables):
    table = tables["paper_claims"]
    numbers = [label.split(":")[0] for label in column(table, "claim")]
    assert numbers == [n for n in CLAIM_NUMBERS for _o in figures.O_VALUES]
    assert column(table, "o") == list(figures.O_VALUES) * len(CLAIM_NUMBERS)


@pytest.mark.parametrize(
    "number, panel",
    [("Lemma 4", "fig5_termination_vs_n"), ("Theorem 7/18", "fig5_agreement_vs_n")],
)
def test_paper_claims_equal_the_fig5_panel(tables, number, panel):
    """A claim a Figure 5 panel plots reads the panel's own cells (repr
    compares NaN too)."""
    rows = claim_rows(tables["paper_claims"], number)
    _title, headers, points = tables[panel]
    for point in points:
        if point[0] not in (100, 300):
            continue
        for o in figures.O_VALUES:
            for kind in ("bound", "exact"):
                assert repr(rows[o][f"{kind} n={point[0]}"]) == repr(
                    point[headers.index(f"{kind} o={o}")]
                )


def test_paper_claims_cells(tables):
    table = tables["paper_claims"]
    safety = claim_rows(table, "Corollary 1")
    for n in figures.LEDGER_N:
        # Corollary 1 knows nothing where Theorems 7 and 8 are undefined.
        for o in (1.7, 1.8):
            assert format_cell(safety[o][f"bound n={n}"]) == "n/a"
            assert safety[o][f"premise n={n}"] is False
        for o in figures.O_VALUES:
            # Theorem 2's premise l >= 2c/(c-1)^2 fails at every paper point.
            assert claim_rows(table, "Theorem 2/14")[o][f"premise n={n}"] is False
            # No chain for the cross-view claims.
            assert claim_rows(table, "Theorem 8/19")[o][f"exact n={n}"] is None
            # The comparisons hold: every gain is positive.
            for number in ("Theorem 5/13", "Theorem 6/12"):
                assert claim_rows(table, number)[o][f"exact n={n}"] > 0
            # A lower bound on a quorum stays below its exact probability.
            for number in ("Theorem 11", "Corollary 2", "Lemma 3", "Lemma 4"):
                cells = claim_rows(table, number)[o]
                assert cells[f"bound n={n}"] <= cells[f"exact n={n}"]
