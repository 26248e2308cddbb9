"""Property tests for the file-domain partition (two-phase core math)."""

from hypothesis import given, strategies as st

from repro.mpiio.twophase import FileDomains
from repro.util.intervals import Extent


@st.composite
def regions(draw):
    gmin = draw(st.integers(0, 10_000))
    length = draw(st.integers(0, 10_000))
    naggs = draw(st.integers(1, 64))
    align = draw(st.sampled_from([1, 1, 16, 64, 1024]))
    return gmin, gmin + length, naggs, align


class TestFileDomainProperties:
    @given(regions())
    def test_domains_partition_the_region(self, region):
        gmin, gmax, naggs, align = region
        d = FileDomains(gmin, gmax, naggs, align)
        total = sum(d.domain(a).length for a in range(naggs))
        assert total == gmax - gmin
        pos = gmin
        for a in range(naggs):
            dom = d.domain(a)
            assert dom.start == pos
            pos = dom.stop
        assert pos == gmax

    @given(regions(), st.data())
    def test_owner_of_matches_domains(self, region, data):
        gmin, gmax, naggs, align = region
        if gmax == gmin:
            return
        d = FileDomains(gmin, gmax, naggs, align)
        offset = data.draw(st.integers(gmin, gmax - 1))
        domain = d.domain(d.owner_of(offset))
        assert domain.start <= offset < domain.stop

    @given(regions(), st.data())
    def test_split_covers_any_extent(self, region, data):
        gmin, gmax, naggs, align = region
        if gmax == gmin:
            return
        d = FileDomains(gmin, gmax, naggs, align)
        lo = data.draw(st.integers(gmin, gmax - 1))
        hi = data.draw(st.integers(lo + 1, gmax))
        pieces = d.split(Extent(lo, hi))
        assert sum(p.length for _, p in pieces) == hi - lo
        pos = lo
        for agg, piece in pieces:
            assert piece.start == pos
            domain = d.domain(agg)
            assert domain.start <= piece.start and piece.stop <= domain.stop
            pos = piece.stop

    @given(regions())
    def test_aligned_interior_bounds(self, region):
        gmin, gmax, naggs, align = region
        d = FileDomains(gmin, gmax, naggs, align)
        if align > 1:
            for b in d.bounds[1:-1]:
                assert (b - gmin) % align == 0 or b == gmax

    @given(st.integers(0, 1000), st.integers(1, 40))
    def test_unaligned_domains_differ_by_at_most_one(self, total, naggs):
        d = FileDomains(0, total, naggs, align=1)
        lengths = [d.domain(a).length for a in range(naggs)]
        assert max(lengths) - min(lengths) <= 1
