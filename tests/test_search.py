"""Candidate clone location: key statements, boundaries, contexts, code."""

from itertools import permutations

import pytest

from conftest import (
    oracle_fragment_similarity,
    oracle_strsim,
    run_git,
)
from forkscan import search, simcore
from forkscan.gitio import GitError, RepoHandle, grep_repo, read_file_at
from forkscan.patchmodel import PatchContext, PatchHunk, PatchType, build_patch_context
from forkscan.preprocess import StatementKind, classify_file, extract_statements
from forkscan.search import (
    CandidateContext,
    StatementCache,
    collect_candidates,
    expand_boundary,
    fetch_candidate_code,
    finalize_contexts,
    find_key_statements,
    is_test_path,
)
from forkscan.simcore import KS_THRESHOLD, SimilarityParams
from test_patchmodel import init_repo, write_files, commit_all
from datetime import datetime, timezone

UTC = timezone.utc

PATCH_PATH = "src/validation.cpp"
PATCH_FC = classify_file(PATCH_PATH)

# Patch-side context: five statements above and below a one-line change.
UP_NORMS = [
    'LogPrintf("Verifying block database integrity...\\n");',
    "if (!CheckBlockDataUsage(chainparams)) {",
    'LogPrintf("Block database check started\\n");',
    'nCheckDepth = gArgs.GetArg("-checkblocks", DEFAULT_CHECKBLOCKS);',
    "fCheckedBlocks = (nCheckDepth > 0);",
]
DOWN_NORMS = [
    "nCheckLevel = std::max(0, std::min(4, nCheckLevel));",
    'LogPrintf("Verification progress saved\\n");',
    "pindexState = chainActive.Tip();",
    "CBlockIndex* pindexFailure = nullptr;",
    "int nGoodTransactions = 0;",
]
DP_LINE = 'if (fHavePruned) return state.Error("corrupt block database detected");'
AP_LINE = (
    "if (fHavePruned || fCorruptBlocks) return AbortNode(state, "
    '"Corrupted block database detected, please restart with -reindex.");'
)

# Fork-flavored clone of the patched region: renamed strings and variables,
# the deleted statement intact at line 6, contexts at 3-5 and 7-11. Line 12
# reuses keywords in a different statement kind; line 13 is a comment trap.
TARGET_LINES = [
    "static bool fLoadedIndex = false;",
    "InitBlockIndexCache();",
    'LogPrintf("Dogecoin: block database check started\\n");',
    'nCheckDepth = gArgs.GetArg("-checkdepth", DEFAULT_CHECKBLOCKS);',
    "fCheckedBlocks = (nCheckDepth > 0);",
    DP_LINE,
    "nCheckLevel = std::max(0, std::min(3, nCheckLevel));",
    'LogPrintf("Dogecoin: verification progress saved\\n");',
    "pindexState = chainActive.Tip();",
    "CBlockIndex* pindexBestFailure = nullptr;",
    "int nGoodTx = 0;",
    "return fCheckedBlocks && nGoodTx > 0;",
    "// fCheckedBlocks = (nCheckDepth > 0);",
]

DECOY_LINE = "fCheckedBlocks = (nCheckDepth > 0);\n"

# One grep serves all keywords of a context, so each hit must be scored only
# against the keywords it contains: line 9 contains `pindexState` (from a
# RETURN, so the kind filter drops it) but not `chainActive.TipX`, although
# that keyword's statement is nearly line 9 itself.
ROUTING_NORMS = [
    "return pindexState;",
    "pindexState = chainActive.TipX();",
    "fCheckedBlocks = (nCheckDepth > 0);",
]

PARAMS = SimilarityParams()


def make_stmts(norms: list[str]):
    return extract_statements(norms, PATCH_PATH, PATCH_FC)


def make_ctx(norms: list[str]) -> PatchContext:
    """A patch context of up to five statements: the UP context of a hunk
    right below them."""
    return build_patch_context(make_stmts(norms), [])[0]


def make_hunk(up_norms=None, down_norms=None) -> PatchHunk:
    return PatchHunk(
        file_class=PATCH_FC, dp=make_stmts([DP_LINE]), ap=make_stmts([AP_LINE]),
        ptype=PatchType.CHA, up_ctx=make_ctx(up_norms or []),
        down_ctx=make_ctx(down_norms or []),
    )


def _repo(tmp, files: dict[str, str]) -> RepoHandle:
    root = init_repo(tmp)
    write_files(root, files)
    commit_all(root, "import", datetime(2020, 1, 1, tzinfo=UTC))
    return RepoHandle(root)


def _cache(repo: RepoHandle, *ctxs: PatchContext) -> StatementCache:
    """A cache at HEAD given the keywords of ctxs."""
    keywords = frozenset(kw.keyword for ctx in ctxs for kw in ctx.keywords)
    return StatementCache(repo, "HEAD", keywords)


def _collect(repo: RepoHandle, hunk: PatchHunk):
    return collect_candidates(_cache(repo, hunk.up_ctx, hunk.down_ctx), hunk, PARAMS)


@pytest.fixture(scope="module")
def fig_repo(tmp_path_factory):
    """Fork target with one clone plus comment, kind, test-path, file-class traps."""
    return _repo(tmp_path_factory.mktemp("fig") / "dogeclone", {
        "src/init.cpp": "\n".join(TARGET_LINES) + "\n",
        "src/tests/util_tests.cpp": DECOY_LINE,
        "src/validation.h": DECOY_LINE,
    })


@pytest.fixture(scope="module")
def twin_repo(tmp_path_factory):
    """The same clone planted twice, in src/init.cpp and src/wallet.cpp."""
    content = "\n".join(TARGET_LINES) + "\n"
    return _repo(tmp_path_factory.mktemp("twin") / "twins", {
        "src/init.cpp": content,
        "src/wallet.cpp": content,
    })


class TestIsTestPath:
    @pytest.mark.parametrize("path,expected", [
        ("src/tests/util.cpp", True),
        ("src/test/x.cpp", True),
        ("testing/y.cpp", True),
        ("testdata/z.go", True),
        ("spec/a.cpp", True),
        ("bench/b.cpp", True),
        ("src/Test/x.cpp", True),
        ("src/attestation/x.cpp", False),
        ("contest/x.cpp", False),
        ("src/init.cpp", False),
    ])
    def test_segments(self, path, expected):
        assert is_test_path(path) is expected


class TestStatementCache:
    def test_matches_direct_extraction(self, fig_repo):
        cache = _cache(fig_repo)
        path = "src/init.cpp"
        direct = extract_statements(
            read_file_at(fig_repo, "HEAD", path), path, classify_file(path)
        )
        assert cache.statements(path) == direct
        assert cache.index_by_line(path) == {
            s.line_no: i for i, s in enumerate(direct)
        }

    def test_index_slices_statement_lines(self, fig_repo):
        cache = _cache(fig_repo)
        stmts, idx = cache.statements("src/init.cpp"), cache.index_by_line("src/init.cpp")
        assert [s.line_no for s in stmts[idx[3]:idx[5] + 1]] == [3, 4, 5]
        assert 13 not in idx  # comment line

    def test_missing_file_is_empty(self, fig_repo):
        cache = _cache(fig_repo)
        assert cache.statements("src/absent.cpp") == []
        assert cache.index_by_line("src/absent.cpp") == {}

    def test_revision_pinning(self, tmp_path):
        root = init_repo(tmp_path / "pin")
        write_files(root, {"a.cpp": "int a = 1;\n"})
        old = commit_all(root, "v1", datetime(2020, 1, 1, tzinfo=UTC))
        write_files(root, {"a.cpp": "int a = 2;\n"})
        commit_all(root, "v2", datetime(2020, 1, 2, tzinfo=UTC))
        repo = RepoHandle(root)
        old_cache = StatementCache(repo, old, frozenset())
        assert old_cache.statements("a.cpp")[0].norm == "int a = 1;"
        assert _cache(repo).statements("a.cpp")[0].norm == "int a = 2;"


def _stmts_in(repo: RepoHandle, path: str, lo: int, hi: int) -> list:
    """The file's statements with lo <= line_no <= hi, by direct scan."""
    return [s for s in _cache(repo).statements(path) if lo <= s.line_no <= hi]


def _brute_force_keys(repo: RepoHandle, ctx: PatchContext) -> set:
    """Every (path, line) of a key statement per the search contract, by
    direct scan."""
    expected: set[tuple[str, int]] = set()
    paths = run_git(repo.root, "ls-tree", "-r", "--name-only", "HEAD").split("\n")
    for path in paths:
        if is_test_path(path) or classify_file(path) != PATCH_FC:
            continue
        stmts = extract_statements(
            read_file_at(repo, "HEAD", path), path, classify_file(path)
        )
        for s in stmts:
            for kw in ctx.keywords:
                if kw.keyword not in s.raw:
                    continue
                src_kind = kw.source_line.kind
                if (
                    src_kind is not StatementKind.OTHER
                    and s.kind is not StatementKind.OTHER
                    and s.kind is not src_kind
                ):
                    continue
                if oracle_strsim(kw.source_line.norm, s.norm) >= KS_THRESHOLD:
                    expected.add((path, s.line_no))
    return expected


def _find(repo: RepoHandle, norms: list[str]):
    ctx = make_ctx(norms)
    return find_key_statements(_cache(repo, ctx), ctx, PATCH_FC)


class TestFindKeyStatements:
    def test_up_context_survivors(self, fig_repo):
        ks = _find(fig_repo, UP_NORMS)
        # In grep order, (path, line).
        assert [(s.path, s.line_no) for s in ks] == [
            ("src/init.cpp", 3),
            ("src/init.cpp", 4),
            ("src/init.cpp", 5),
            ("src/init.cpp", 8),
        ]

    def test_down_context_survivors(self, fig_repo):
        assert [s.line_no for s in _find(fig_repo, DOWN_NORMS)] == [7, 9]

    def test_filters_block_traps(self, fig_repo):
        hit_keys = {(s.path, s.line_no) for s in _find(fig_repo, UP_NORMS)}
        assert ("src/tests/util_tests.cpp", 1) not in hit_keys  # test path
        assert ("src/validation.h", 1) not in hit_keys  # different file class
        assert ("src/init.cpp", 12) not in hit_keys  # RETURN vs ASSIGNMENT
        assert ("src/init.cpp", 13) not in hit_keys  # comment line

    @pytest.mark.parametrize("norms", [UP_NORMS, DOWN_NORMS, ROUTING_NORMS],
                             ids=["up", "down", "routing"])
    def test_matches_brute_force_scan(self, fig_repo, norms):
        got = {(s.path, s.line_no) for s in _find(fig_repo, norms)}
        assert got == _brute_force_keys(fig_repo, make_ctx(norms))

    def test_all_sims_pass_gate(self, fig_repo):
        ctx = make_ctx(UP_NORMS)
        for s in _find(fig_repo, UP_NORMS):
            assert max(
                oracle_strsim(kw.source_line.norm, s.norm)
                for kw in ctx.keywords if kw.keyword in s.raw
            ) >= KS_THRESHOLD

    def test_empty_context_finds_nothing(self, fig_repo):
        assert _find(fig_repo, []) == []


# Contexts of several patches whose keywords overlap: `Tip` lies inside
# `chainstate.Tip`, and line 4 of src/chain.cpp holds `fPruneMode` of one
# context and `LogPrintf` of another. src/net.cpp has CRLF line ends and
# src/raw.cpp a byte that is not UTF-8.
OVERLAP_CONTEXTS = [
    ["pindex = chainstate.Tip();", "nHeight = pindex->nHeight;"],
    ["return Tip();"],
    ["if (fPruneMode) return false;", "nHeight = pindex->nHeight;"],
    ['LogPrintf("tip %s\\n", strTip);'],
    ["CBlockIndex* pindexPrev = chainstate.Tip();", "return Tip();"],
]
OVERLAP_FILES = {
    "src/chain.cpp": (
        "CBlockIndex* pindex = chainstate.Tip();\n"
        "if (!Tip()) return false;\n"
        "int nHeight = pindex->nHeight;\n"
        'if (fPruneMode) LogPrintf("prune %d\\n", nHeight);\n'
        'LogPrintf("tip %s\\n", chainstate.Tip()->ToString());\n'
        "return Tip();\n"
    ),
    "src/net.cpp": (
        "CBlockIndex* pindex = chainstate.Tip();\r\n"
        'LogPrintf("net tip\\n");\r\n'
        "return Tip();\r\n"
    ),
}
OVERLAP_BYTES = {
    "src/raw.cpp": (
        b"int nHeight = chainstate.Tip()->nHeight; // caf\xe9\n"
        b"return Tip(); /* \xff */\n"
        b"if (fPruneMode) return false;\n"
    ),
}


@pytest.fixture(scope="module")
def overlap_repo(tmp_path_factory):
    root = init_repo(tmp_path_factory.mktemp("overlap") / "fork")
    write_files(root, OVERLAP_FILES)
    for name, data in OVERLAP_BYTES.items():
        (root / name).write_bytes(data)
    commit_all(root, "import", datetime(2020, 1, 1, tzinfo=UTC))
    return RepoHandle(root)


class TestUnionGrepRouting:
    """A cache seeded with every context's keywords greps once and hands
    each context the hits of its own keywords."""

    @pytest.fixture
    def contexts(self):
        ctxs = [make_ctx(norms) for norms in OVERLAP_CONTEXTS]
        keywords = {kw.keyword for ctx in ctxs for kw in ctx.keywords}
        assert {"Tip", "chainstate.Tip", "fPruneMode", "LogPrintf"} <= keywords
        return ctxs

    @pytest.fixture
    def greps(self, monkeypatch):
        """The keyword lists of every gitio.grep_repo call."""
        calls = []
        real = search.gitio.grep_repo
        monkeypatch.setattr(
            search.gitio, "grep_repo",
            lambda repo, kws, rev: calls.append(kws) or real(repo, kws, rev),
        )
        return calls

    @staticmethod
    def _own_cache(repo, ctx):
        keywords = frozenset(kw.keyword for kw in ctx.keywords)
        return StatementCache(repo, "HEAD", keywords)

    def test_union_matches_per_context_cache(self, overlap_repo, contexts, greps):
        wanted = [
            find_key_statements(self._own_cache(overlap_repo, ctx), ctx, PATCH_FC)
            for ctx in contexts
        ]
        union = frozenset(kw.keyword for ctx in contexts for kw in ctx.keywords)
        seeded = StatementCache(overlap_repo, "HEAD", union)
        greps.clear()
        got = [find_key_statements(seeded, ctx, PATCH_FC) for ctx in contexts]
        assert got == wanted
        assert greps == [sorted(union)]
        # The `Tip` context keeps its return statements, the CRLF and the
        # non-UTF-8 line among them; line 1 holds `Tip` in a declaration.
        tip = {(s.path, s.line_no) for s in got[1]}
        assert ("src/chain.cpp", 1) not in tip
        assert {("src/chain.cpp", 6), ("src/net.cpp", 3), ("src/raw.cpp", 2)} <= tip

    def test_union_hits_equal_per_context_grep(self, overlap_repo, contexts):
        union = frozenset(kw.keyword for ctx in contexts for kw in ctx.keywords)
        seeded = StatementCache(overlap_repo, "HEAD", union)
        for ctx in contexts:
            keywords = [kw.keyword for kw in ctx.keywords]
            assert seeded.grep(keywords) == grep_repo(overlap_repo, keywords, "HEAD")
        chain_tip = {(h.path, h.line_no) for h in seeded.grep(["Tip"])}
        assert {("src/chain.cpp", n) for n in (1, 2, 5, 6)} <= chain_tip
        for kw in ("fPruneMode", "LogPrintf"):
            lines = {(h.path, h.line_no) for h in seeded.grep([kw])}
            assert ("src/chain.cpp", 4) in lines
        crlf = seeded.grep(["LogPrintf"])
        assert [h.raw_line for h in crlf if h.path == "src/net.cpp"] == [
            'LogPrintf("net tip\\n");\r'
        ]

    def test_failed_grep_is_not_stored(self, overlap_repo, contexts, greps):
        keywords = frozenset(kw.keyword for ctx in contexts[:2] for kw in ctx.keywords)
        cache = StatementCache(overlap_repo, "no-such-rev", keywords)
        for ctx in contexts[:2]:
            with pytest.raises(GitError, match="git grep failed"):
                find_key_statements(cache, ctx, PATCH_FC)
        assert greps == [sorted(keywords)] * 2

    def test_greps_once(self, overlap_repo, greps):
        cache = StatementCache(overlap_repo, "HEAD", frozenset({"Tip", "LogPrintf"}))
        assert cache.grep(["Tip"]) and cache.grep(["LogPrintf"]) and cache.grep(["Tip"])
        assert greps == [["LogPrintf", "Tip"]]

    def test_each_keyword_tuple_is_answered_once(self, overlap_repo, greps):
        cache = StatementCache(overlap_repo, "HEAD", frozenset({"Tip", "LogPrintf"}))
        first = cache.grep(["Tip", "LogPrintf"])
        assert cache.grep(["Tip", "LogPrintf"]) is first
        assert cache.grep(["LogPrintf", "Tip"]) == first
        assert greps == [["LogPrintf", "Tip"]]

    def test_keyword_not_given_is_rejected(self, overlap_repo, greps):
        cache = StatementCache(overlap_repo, "HEAD", frozenset({"Tip"}))
        with pytest.raises(ValueError, match="fPruneMode"):
            cache.grep(["Tip", "fPruneMode"])
        assert greps == []


# Every file holds the keyword `Tip`; the newline path cannot be named on a
# `cat-file --batch` line, and test code is never searched.
BATCH_FILES = {
    "src/with space.cpp": "CBlockIndex* pindex = chainstate.Tip();\n",
    "src/with:colon.cpp": "int n = 0;\nreturn Tip();\n",
    "src/new\nline.cpp": "return Tip(); // newline in the name\n",
    "src/crlf.cpp": "int n = 0;\r\nif (!Tip()) return false;\r\n",
    "src/test/decoy.cpp": "return Tip();\n",
}
BATCH_BYTES = {"src/raw.cpp": b"int h = Tip()->nHeight; // caf\xe9\n/* \xff */ x = Tip();\n"}


@pytest.fixture(scope="module")
def batch_repo(tmp_path_factory):
    root = init_repo(tmp_path_factory.mktemp("batch") / "fork")
    write_files(root, BATCH_FILES)
    for name, data in BATCH_BYTES.items():
        (root / name).write_bytes(data)
    commit_all(root, "import", datetime(2020, 1, 1, tzinfo=UTC))
    return RepoHandle(root)


class TestBatchedFileReads:
    """After its one grep, the cache reads every hit file outside test code
    in one `cat-file --batch`; a file the batch leaves out is read alone."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """("batch", paths) or ("alone", path) of every file read."""
        calls = []
        many, one = search.gitio.read_files_at, search.gitio.read_file_at

        def batch(repo, rev, paths):
            calls.append(("batch", list(paths)))
            return many(repo, rev, paths)

        def alone(repo, rev, path):
            calls.append(("alone", path))
            return one(repo, rev, path)

        monkeypatch.setattr(search.gitio, "read_files_at", batch)
        monkeypatch.setattr(search.gitio, "read_file_at", alone)
        return calls

    def test_one_batch_then_only_the_unnamable_path_alone(self, batch_repo, reads):
        cache = StatementCache(batch_repo, "HEAD", frozenset({"Tip"}))
        hits = cache.grep(["Tip"])
        files = [*BATCH_FILES, *BATCH_BYTES]
        assert {h.path for h in hits} == set(files)
        searched = sorted(p for p in files if not is_test_path(p))
        assert reads == [("batch", searched)]
        reads.clear()
        got = {p: cache.statements(p) for p in searched}
        assert reads == [("alone", "src/new\nline.cpp")]
        for path in searched:
            direct = extract_statements(
                read_file_at(batch_repo, "HEAD", path), path, classify_file(path)
            )
            assert got[path] == direct, path
        assert [s.raw for s in got["src/crlf.cpp"]] == [
            "int n = 0;\r", "if (!Tip()) return false;\r",
        ]
        assert got["src/raw.cpp"][0].norm == "int h = Tip()->nHeight;"

    def test_hit_under_test_code_is_not_read(self, batch_repo, reads):
        ctx = make_ctx(["return Tip();"])
        assert [kw.keyword for kw in ctx.keywords] == ["Tip"]
        found = find_key_statements(_cache(batch_repo, ctx), ctx, PATCH_FC)
        assert "src/test/decoy.cpp" not in {s.path for s in found}
        assert {s.path for s in found} >= {"src/with:colon.cpp", "src/new\nline.cpp"}
        read = [p for kind, paths in reads
                for p in (paths if kind == "batch" else [paths])]
        assert "src/test/decoy.cpp" not in read

    def test_failed_read_stores_no_hits(self, batch_repo, reads, monkeypatch):
        def broken(repo, rev, paths):
            raise GitError("git cat-file failed: boom")

        monkeypatch.setattr(search.gitio, "read_files_at", broken)
        cache = StatementCache(batch_repo, "HEAD", frozenset({"Tip"}))
        with pytest.raises(GitError, match="boom"):
            cache.grep(["Tip"])
        monkeypatch.undo()
        assert {h.path for h in cache.grep(["Tip"])} >= {"src/crlf.cpp"}


class TestExpandBoundary:
    def _seed(self, repo, norms, line):
        return next(s for s in _find(repo, norms) if s.line_no == line)

    @pytest.mark.parametrize("line", [3, 4, 5])
    def test_up_seeds_converge(self, fig_repo, line):
        ctx = make_ctx(UP_NORMS)
        ks = self._seed(fig_repo, UP_NORMS, line)
        assert expand_boundary(_cache(fig_repo), ks, ctx) == (3, 5)

    @pytest.mark.parametrize("line", [7, 9])
    def test_down_seeds_converge(self, fig_repo, line):
        ctx = make_ctx(DOWN_NORMS)
        ks = self._seed(fig_repo, DOWN_NORMS, line)
        assert expand_boundary(_cache(fig_repo), ks, ctx) == (7, 11)

    def test_far_seed_expands_wide(self, fig_repo):
        # The line-8 seed still anchors its start at line 3; its end drifts
        # to the keyword-sharing return at line 12.
        ctx = make_ctx(UP_NORMS)
        ks = self._seed(fig_repo, UP_NORMS, 8)
        assert expand_boundary(_cache(fig_repo), ks, ctx) == (3, 12)

    def test_single_statement_context_collapses_to_seed(self, fig_repo):
        ctx = make_ctx(["pindexState = chainActive.Tip();"])
        ks = find_key_statements(_cache(fig_repo, ctx), ctx, PATCH_FC)[0]
        assert ks.line_no == 9
        assert expand_boundary(_cache(fig_repo), ks, ctx) == (9, 9)

    def test_gate_failure_returns_none(self, tmp_path):
        repo = _repo(tmp_path / "gate", {
            "src/gate.cpp": "qq;\nnCheckValue = ComputeValue(x);\nzz;\n",
        })
        ctx = make_ctx([
            "AlphaBetaGammaDeltaKappa();",
            "nCheckValue = ComputeValue(x);",
            "OmegaEpsilonZetaTheta();",
        ])
        ks = find_key_statements(_cache(repo, ctx), ctx, PATCH_FC)
        assert [s.line_no for s in ks] == [2]
        assert expand_boundary(_cache(repo), ks[0], ctx) is None

    def test_equal_matches_prefer_closest(self, tmp_path):
        repo = _repo(tmp_path / "dup", {
            "src/dup.cpp": (
                "setup_call(a);\nBeginMarker(x);\nMarkerEnd();\n"
                "junk_one(b);\nMarkerEnd();\n"
            ),
        })
        ctx = make_ctx(["BeginMarker(y);", "filler_stmt;", "MarkerEnd();"])
        ks = find_key_statements(_cache(repo, ctx), ctx, PATCH_FC)
        seed2 = next(s for s in ks if s.line_no == 2)
        # MarkerEnd() appears at lines 3 and 5 with equal similarity; the
        # boundary ends at the one nearer the seed.
        assert expand_boundary(_cache(repo), seed2, ctx) == (2, 3)


class TestFinalizeContexts:
    def test_keeps_passing_region_with_oracle_score(self, fig_repo):
        ctx = make_ctx(UP_NORMS)
        kept = finalize_contexts(
            _cache(fig_repo), [("src/init.cpp", (3, 5))], ctx, PARAMS
        )
        assert len(kept) == 1
        c = kept[0]
        assert (c.path, c.ss_line, c.es_line) == ("src/init.cpp", 3, 5)
        stmts = _stmts_in(fig_repo, c.path, c.ss_line, c.es_line)
        assert [s.line_no for s in stmts] == [3, 4, 5]
        expected = oracle_fragment_similarity(
            UP_NORMS, [s.norm for s in stmts], PARAMS.r
        )
        assert c.ctx_sim == pytest.approx(expected, abs=1e-12)
        assert c.ctx_sim >= PARAMS.t

    def test_drops_region_below_threshold(self, fig_repo):
        ctx = make_ctx(UP_NORMS)
        kept = finalize_contexts(
            _cache(fig_repo), [("src/init.cpp", (8, 12))], ctx, PARAMS
        )
        assert kept == []
        stmts = _stmts_in(fig_repo, "src/init.cpp", 8, 12)
        assert oracle_fragment_similarity(
            UP_NORMS, [s.norm for s in stmts], PARAMS.r
        ) < PARAMS.t

    def test_overlapping_regions_keep_best(self, fig_repo):
        ctx = make_ctx(UP_NORMS)
        kept = finalize_contexts(
            _cache(fig_repo),
            [("src/init.cpp", (3, 5)), ("src/init.cpp", (3, 12))],
            ctx, PARAMS,
        )
        assert [(c.ss_line, c.es_line) for c in kept] == [(3, 5)]

    def test_cap_keeps_best_contexts(self, twin_repo, monkeypatch):
        ctx = make_ctx(UP_NORMS)
        spans = [("src/init.cpp", (3, 5)), ("src/wallet.cpp", (3, 5))]
        under_cap = finalize_contexts(_cache(twin_repo), spans, ctx, PARAMS)
        assert [c.path for c in under_cap] == ["src/init.cpp", "src/wallet.cpp"]
        monkeypatch.setattr(search, "MAX_CANDIDATES", 1)
        capped = finalize_contexts(_cache(twin_repo), spans, ctx, PARAMS)
        assert [(c.path, c.ss_line) for c in capped] == [("src/init.cpp", 3)]

    @pytest.mark.parametrize("cap", [search.MAX_CANDIDATES, 2])
    def test_boundary_order_does_not_matter(self, twin_repo, monkeypatch, cap):
        # Key statements come in grep order, so finalize must not depend on
        # the order of its boundaries: equal-score spans in two files, an
        # overlap, a span below t and a repeated span.
        monkeypatch.setattr(search, "MAX_CANDIDATES", cap)
        ctx, cache = make_ctx(UP_NORMS), _cache(twin_repo)
        spans = [
            ("src/wallet.cpp", (3, 5)), ("src/init.cpp", (3, 5)),
            ("src/init.cpp", (3, 12)), ("src/init.cpp", (4, 5)),
            ("src/init.cpp", (8, 12)), ("src/wallet.cpp", (3, 5)),
        ]
        want = finalize_contexts(cache, spans, ctx, PARAMS)
        assert len(want) == min(cap, 2)
        for order in permutations(spans):
            assert finalize_contexts(cache, list(order), ctx, PARAMS) == want


def _ctx(path: str, ss: int, es: int) -> CandidateContext:
    return CandidateContext(path=path, ss_line=ss, es_line=es, ctx_sim=0.9)


class TestFetchCandidateCode:
    def test_between_pair(self, fig_repo):
        up = _ctx("src/init.cpp", 3, 5)
        down = _ctx("src/init.cpp", 7, 11)
        cand = fetch_candidate_code(_cache(fig_repo), up, down, 1)
        assert cand.span == (6, 6)
        assert cand.norms == [DP_LINE]
        assert cand.paired_up is up and cand.paired_down is down

    def test_adjacent_pair_yields_empty_candidate(self, fig_repo):
        up = _ctx("src/init.cpp", 3, 5)
        down = _ctx("src/init.cpp", 6, 11)
        cand = fetch_candidate_code(_cache(fig_repo), up, down, 1)
        assert cand.stmts == [] and cand.span == (6, 5)

    def test_up_only_takes_statements_below(self, fig_repo):
        up = _ctx("src/init.cpp", 3, 5)
        cand = fetch_candidate_code(_cache(fig_repo), up, None, 2)
        assert cand.span == (6, 7)
        assert [s.line_no for s in cand.stmts] == [6, 7]
        assert cand.paired_down is None

    def test_up_only_at_end_of_file(self, fig_repo):
        up = _ctx("src/init.cpp", 10, 12)
        cand = fetch_candidate_code(_cache(fig_repo), up, None, 2)
        assert cand.stmts == [] and cand.span == (13, 12)

    def test_down_only_takes_statements_above(self, fig_repo):
        down = _ctx("src/init.cpp", 7, 11)
        cand = fetch_candidate_code(_cache(fig_repo), None, down, 2)
        assert cand.span == (5, 6)
        assert cand.norms[-1] == DP_LINE

    def test_down_only_at_start_of_file(self, fig_repo):
        down = _ctx("src/init.cpp", 1, 5)
        cand = fetch_candidate_code(_cache(fig_repo), None, down, 3)
        assert cand.stmts == [] and cand.span == (1, 0)


class TestPairContexts:
    def test_candidate_order(self, fig_repo):
        # gap(UP ending at e, DOWN starting at s) = s - e - 1: every line of
        # src/init.cpp up to 12 is a statement.
        u0, u1 = _ctx("src/init.cpp", 8, 8), _ctx("src/init.cpp", 1, 4)
        u2, u3 = _ctx("src/init.cpp", 3, 5), _ctx("src/init.cpp", 4, 5)
        d0, d1 = _ctx("src/init.cpp", 12, 12), _ctx("src/init.cpp", 10, 11)
        d2, d3 = _ctx("src/init.cpp", 7, 9), _ctx("src/other.cpp", 1, 2)
        got = search._pair_contexts(
            _cache(fig_repo), [u0, u1, u2, u3], [d0, d1, d2, d3], 5
        )
        # u2-d2 and u0-d1 tie at gap 1, and u2 ends first. u2 and u3 tie on
        # (gap, path, end, start) for d2, and u2 comes first in the input.
        # u1 loses d2 to u2 and is over max_gap to d0 (gap 7); u3 loses d1
        # to u0 and is over max_gap to d0 (gap 6). d3 is in another file.
        assert got == [
            (u2, d2), (u0, d1), (u1, None), (u3, None), (None, d0), (None, d3),
        ]


class TestCollectCandidates:
    def test_end_to_end_single_clone(self, fig_repo):
        out = _collect(fig_repo, make_hunk(UP_NORMS, DOWN_NORMS))
        (cand,) = out.candidates
        assert cand.span == (6, 6) and cand.norms == [DP_LINE]
        up, down = cand.paired_up, cand.paired_down
        assert (up.path, up.ss_line, up.es_line) == ("src/init.cpp", 3, 5)
        assert (down.path, down.ss_line, down.es_line) == ("src/init.cpp", 7, 11)
        up_stmts = _stmts_in(fig_repo, up.path, up.ss_line, up.es_line)
        assert up.ctx_sim == pytest.approx(
            oracle_fragment_similarity(UP_NORMS, [s.norm for s in up_stmts], PARAMS.r),
            abs=1e-12,
        )

    def test_two_files_two_candidates(self, twin_repo):
        out = _collect(twin_repo, make_hunk(UP_NORMS, DOWN_NORMS))
        assert [(c.path, c.span) for c in out.candidates] == [
            ("src/init.cpp", (6, 6)),
            ("src/wallet.cpp", (6, 6)),
        ]
        for cand in out.candidates:
            assert cand.norms == [DP_LINE]
            assert cand.paired_up is not None and cand.paired_down is not None

    def test_up_context_only(self, fig_repo):
        out = _collect(fig_repo, make_hunk(UP_NORMS, None))
        (cand,) = out.candidates
        assert cand.span == (6, 6) and cand.norms == [DP_LINE]
        assert cand.paired_up is not None and cand.paired_down is None

    def test_down_context_only(self, fig_repo):
        out = _collect(fig_repo, make_hunk(None, DOWN_NORMS))
        (cand,) = out.candidates
        assert cand.span == (6, 6) and cand.norms == [DP_LINE]
        assert cand.paired_up is None and cand.paired_down is not None

    def test_verbatim_plant_scores_one(self, tmp_path):
        repo = _repo(tmp_path / "plant", {
            "src/clone.cpp": "\n".join(UP_NORMS + [DP_LINE] + DOWN_NORMS) + "\n",
        })
        out = _collect(repo, make_hunk(UP_NORMS, DOWN_NORMS))
        (cand,) = out.candidates
        assert cand.span == (6, 6) and cand.norms == [DP_LINE]
        up, down = cand.paired_up, cand.paired_down
        assert (up.ss_line, up.es_line, up.ctx_sim) == (1, 5, 1.0)
        assert (down.ss_line, down.es_line, down.ctx_sim) == (7, 11, 1.0)

    def test_absent_region_finds_nothing(self, tmp_path):
        repo = _repo(tmp_path / "empty", {
            "src/unrelated.cpp": "int completely = 0;\ndifferent_code(here);\n",
        })
        out = _collect(repo, make_hunk(UP_NORMS, DOWN_NORMS))
        assert out.candidates == []


class TestBatchedBoundaries:
    """collect_candidates scores every seed's boundary windows in one kernel
    pass per context end, before expand_boundary reads them."""

    @pytest.mark.parametrize("repo_name", ["fig_repo", "twin_repo"])
    def test_expand_boundary_reads_only_the_memo(
        self, request, monkeypatch, kernel_calls, repo_name
    ):
        repo = request.getfixturevalue(repo_name)
        expand = search.expand_boundary
        expanded = []

        def watched(cache, ks, ctx):
            before = len(kernel_calls)
            span = expand(cache, ks, ctx)
            expanded.append((ks, ctx, span, len(kernel_calls) - before))
            return span

        monkeypatch.setattr(search, "expand_boundary", watched)
        _collect(repo, make_hunk(UP_NORMS, DOWN_NORMS))
        assert len(expanded) > 2 and kernel_calls
        assert [calls for *_, calls in expanded] == [0] * len(expanded)
        # The same seeds against a cold memo give the same spans.
        monkeypatch.setattr(simcore, "_STRSIM_MEMO", {})
        cache = _cache(repo)
        for ks, ctx, span, _ in expanded:
            assert expand(cache, ks, ctx) == span

    def test_warm_up_computes_the_pairs_expansion_asks_for(self, fig_repo, kernel_calls):
        hunk = make_hunk(UP_NORMS, DOWN_NORMS)
        _collect(fig_repo, hunk)
        batched = set(simcore._STRSIM_MEMO)
        simcore._STRSIM_MEMO.clear()
        cache = _cache(fig_repo, hunk.up_ctx, hunk.down_ctx)
        for ctx in (hunk.up_ctx, hunk.down_ctx):
            boundaries = []
            for ks in find_key_statements(cache, ctx, PATCH_FC):
                span = expand_boundary(cache, ks, ctx)
                if span is not None:
                    boundaries.append((ks.path, span))
            finalize_contexts(cache, boundaries, ctx, PARAMS)
        assert batched == set(simcore._STRSIM_MEMO)
