#include "src/mem/cache.hh"

#include <algorithm>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::mem
{

namespace
{
constexpr std::size_t strideTableEntries = 16;
static_assert((strideTableEntries & (strideTableEntries - 1)) == 0,
              "the stride table is indexed with a mask");
} // namespace

Cache::Cache(const CacheParams &params, Downstream downstream)
    : _params(params), _downstream(std::move(downstream)),
      _clock(params.clockHz),
      _numSets(params.sizeBytes / lineBytes /
               static_cast<std::uint64_t>(params.assoc)),
      _setMask((_numSets & (_numSets - 1)) == 0 ? _numSets - 1 : 0),
      _assoc(static_cast<std::size_t>(params.assoc)),
      _tagLat(_clock.cyclesToTicks(params.latencyCycles)),
      _tags(_numSets * _assoc, 0), _lru(_numSets * _assoc, 0),
      _flags(_numSets * _assoc, 0),
      _mshrFree(static_cast<std::size_t>(std::max(params.mshrs, 1)), 0),
      _strideTable(strideTableEntries)
{
    if (_numSets == 0)
        fatal("cache '%s': size %llu too small for assoc %d",
              params.name.c_str(),
              static_cast<unsigned long long>(params.sizeBytes),
              params.assoc);
    if (!_downstream)
        fatal("cache '%s' has no downstream", params.name.c_str());
}

std::size_t
Cache::setBase(Addr line_addr) const
{
    const Addr line = lineNum(line_addr);
    std::size_t set;
    if (_params.setHash) {
        // Fibonacci hashing: high product bits mix every line bit, so
        // page-interleaved banks use all their sets.
        const Addr h = line * 0x9e3779b97f4a7c15ULL;
        const auto hi = static_cast<std::size_t>(h >> 32);
        set = _setMask ? hi & _setMask : hi % _numSets;
    } else {
        // Power-of-two set counts (the common case) mask instead of
        // dividing; identical index, no hardware divide per probe.
        const auto l = static_cast<std::size_t>(line);
        set = _setMask ? l & _setMask : l % _numSets;
    }
    return set * _assoc;
}

std::size_t
Cache::victimWay(std::size_t base) const
{
    std::size_t victim = base;
    for (std::size_t w = base; w < base + _assoc; ++w) {
        if (_tags[w] == 0)
            return w;
        if (_lru[w] < _lru[victim])
            victim = w;
    }
    return victim;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line_addr = lineAlign(addr);
    return findWay(setBase(line_addr), lineNum(line_addr) + 1) != noWay;
}

void
Cache::replaceMshrRoot(sim::Tick done)
{
    // One sift-down from the root: the same min-heap as a pop followed
    // by a push of @p done, which is never earlier than the old root.
    sim::Tick *const heap = _mshrFree.data();
    const std::size_t n = _mshrFree.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && heap[c + 1] < heap[c])
            ++c;
        if (heap[c] >= done)
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = done;
}

CacheResult
Cache::accessLine(Addr line_addr, bool write, sim::Tick now)
{
    ++_accesses;

    // MRU filter: skip the set walk when the last-hit line matches.
    const Addr key = lineNum(line_addr) + 1;
    std::size_t way = _mru;
    std::size_t base = 0;
    if (_tags[way] != key) {
        base = setBase(line_addr);
        way = findWay(base, key);
    }

    if (way != noWay) {
        ++_hits;
        std::uint8_t &flags = _flags[way];
        if (flags & prefetchedFlag) {
            ++_prefetchHits;
            flags &= static_cast<std::uint8_t>(~prefetchedFlag);
        }
        _mru = way;
        _lru[way] = ++_lruTick;
        if (write) {
            flags = static_cast<std::uint8_t>(
                (flags & ~dirtyFlag) | (_params.writeback ? dirtyFlag : 0));
        }
        if (!write && _params.stridePrefetch)
            prefetch(line_addr, now);
        return CacheResult{true, _tagLat};
    }

    ++_misses;

    // Occupy the earliest-free MSHR (the root of the _mshrFree
    // min-heap); queue when all are busy.
    const sim::Tick start = std::max(now + _tagLat, _mshrFree.front());
    const sim::Tick fill_lat =
        fillWay(victimWay(base), line_addr, write && _params.writeback,
                start, true);
    const sim::Tick done = start + fill_lat;
    replaceMshrRoot(done);

    if (_probe) {
        _probe->span(_probeTrack, "miss", start, done);
        if (_missDist)
            _missDist->sample(static_cast<double>(done - now));
    }

    if (!write && _params.stridePrefetch)
        prefetch(line_addr, now);

    return CacheResult{false, done - now};
}

sim::Tick
Cache::fillWay(std::size_t way, Addr line_addr, bool dirty,
               sim::Tick now, bool count_demand)
{
    // Invalid ways hold no flags, so only a valid dirty victim drains.
    if (_flags[way] & dirtyFlag) {
        ++_writebacks;
        // Writeback is off the critical path; latency discarded.
        _downstream((_tags[way] - 1) * lineBytes, true, now);
    }

    const sim::Tick miss_lat = _downstream(line_addr, false, now);

    _tags[way] = lineNum(line_addr) + 1;
    _flags[way] = static_cast<std::uint8_t>(
        (dirty ? dirtyFlag : 0) | (count_demand ? 0 : prefetchedFlag));
    _lru[way] = ++_lruTick;
    if (count_demand)
        _mru = way;

    return miss_lat;
}

void
Cache::prefetch(Addr line_addr, sim::Tick now)
{
    const std::uint64_t region = line_addr >> 12;
    const auto line = static_cast<std::int64_t>(lineNum(line_addr));
    StrideEntry &entry = _strideTable[region & (strideTableEntries - 1)];

    if (entry.region != region) {
        entry.region = region;
        entry.lastLine = line;
        entry.stride = 0;
        entry.confidence = 0;
        return;
    }

    const std::int64_t delta = line - entry.lastLine;
    entry.lastLine = line;
    if (delta == 0)
        return;
    if (delta == entry.stride) {
        entry.confidence = std::min(entry.confidence + 1, 4);
    } else {
        entry.stride = delta;
        entry.confidence = 0;
        return;
    }

    if (entry.confidence < 2)
        return;

    for (int d = 1; d <= _params.prefetchDegree; ++d) {
        const std::int64_t target = line + entry.stride * d;
        if (target < 0)
            continue;
        const Addr target_addr = static_cast<Addr>(target) * lineBytes;
        const std::size_t base = setBase(target_addr);
        if (findWay(base, lineNum(target_addr) + 1) != noWay)
            continue;
        ++_prefetches;
        // Prefetch fills are off the demand critical path.
        fillWay(victimWay(base), target_addr, false, now, false);
    }
}

void
Cache::flush(sim::Tick now)
{
    for (std::size_t w = 0; w < _tags.size(); ++w) {
        if (_flags[w] & dirtyFlag) {
            ++_writebacks;
            _downstream((_tags[w] - 1) * lineBytes, true, now);
        }
        _tags[w] = 0;
        _flags[w] = 0;
    }
}

void
Cache::exportStats(stats::Group &group) const
{
    const std::string p = _params.name + ".";
    group.add(p + "accesses") = _accesses;
    group.add(p + "hits") = _hits;
    group.add(p + "misses") = _misses;
    group.add(p + "writebacks") = _writebacks;
    group.add(p + "prefetches") = _prefetches;
    group.add(p + "prefetch_hits") = _prefetchHits;
}

} // namespace distda::mem
