#include "src/common/rng.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <numeric>

#include "src/common/error.hpp"

namespace talon {

namespace {

/// SplitMix64 finalizer (Steele et al.); bijective on 64-bit words.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// std::mt19937_64's parameters: n = Mt19937_64::kWords, m = kShift,
// r = 31, a = kTwist, f = kSeedMultiplier.
constexpr std::size_t kShift = 156;
constexpr std::size_t kChunk = 16;
constexpr std::uint64_t kTwist = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

std::uint64_t twisted(std::uint64_t word, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & ~kUpperMask);
  return far ^ (y >> 1) ^ ((y & 1) ? kTwist : 0);
}

}  // namespace

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) {
  if (this == &other) return *this;
  std::copy_n(other.x_, other.seeded_, x_);
  next_ = other.next_;
  twisted_ = other.twisted_;
  seeded_ = other.seeded_;
  return *this;
}

void Mt19937_64::seed_through(std::size_t end) {
  for (std::size_t i = seeded_; i < end; ++i) {
    const std::uint64_t prev = x_[i - 1];
    x_[i] = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
  }
  seeded_ = static_cast<std::uint32_t>(std::max<std::size_t>(seeded_, end));
}

// Twists words [begin, end) in place, in order, exactly as the standard
// twist does when it reaches them: word k < n - m reads the untwisted
// x[k + m], later words read the already-twisted x[k + m - n], and the
// last reads the twisted x[0].
void Mt19937_64::twist(std::size_t begin, std::size_t end) {
  const std::size_t low_end = std::min(end, kWords - kShift);
  for (std::size_t k = begin; k < low_end; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kShift]);
  }
  const std::size_t high_end = std::min(end, kWords - 1);
  for (std::size_t k = std::max(begin, kWords - kShift); k < high_end; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kShift - kWords]);
  }
  if (begin < kWords && end == kWords) {
    x_[kWords - 1] = twisted(x_[kWords - 1], x_[0], x_[kShift - 1]);
  }
}

// The first block is twisted kChunk words at a time, seeding only the
// words those need (twisting word k < n - m reads seed word k + m). Once
// a whole block is twisted, the next one is twisted in full.
void Mt19937_64::refill() {
  if (twisted_ == kWords) {
    twist(0, kWords);
    next_ = 0;
    return;
  }
  const std::size_t end = std::min(kWords, std::size_t{twisted_} + kChunk);
  seed_through(std::min(kWords, end + kShift));
  twist(twisted_, end);
  twisted_ = static_cast<std::uint32_t>(end);
}

std::string Mt19937_64::state_text() const {
  Mt19937_64 full(*this);
  full.seed_through(kWords);
  // A never-drawn engine prints its raw seeded block, index n, as std does.
  std::size_t index = kWords;
  if (twisted_ > 0) {
    full.twist(twisted_, kWords);
    index = next_;
  }
  std::string out;
  out.reserve(kWords * 21 + 4);
  char buf[24];
  for (const std::uint64_t word : full.x_) {
    const auto res = std::to_chars(buf, buf + sizeof buf, word);
    out.append(buf, res.ptr);
    out.push_back(' ');
  }
  const auto res = std::to_chars(buf, buf + sizeof buf, index);
  out.append(buf, res.ptr);
  return out;
}

Mt19937_64 Mt19937_64::from_state_text(const std::string& text) {
  const char* pos = text.data();
  const char* const end = pos + text.size();
  const auto is_space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  // Next whitespace-separated unsigned decimal token; digits only.
  const auto next_word = [&](std::uint64_t& value) {
    while (pos != end && is_space(*pos)) ++pos;
    if (pos == end || !std::isdigit(static_cast<unsigned char>(*pos))) return false;
    const auto res = std::from_chars(pos, end, value);
    if (res.ec != std::errc{}) return false;
    pos = res.ptr;
    return pos == end || is_space(*pos);
  };
  const auto reject = [](const char* why) {
    throw SnapshotError(std::string("rng state text is not an mt19937_64 state: ") + why);
  };

  Mt19937_64 engine;
  for (std::uint64_t& word : engine.x_) {
    if (!next_word(word)) reject("expected 312 unsigned 64-bit decimal words");
  }
  std::uint64_t index = 0;
  if (!next_word(index)) reject("expected a block index after the 312 words");
  if (index > kWords) reject("block index outside [0, 312]");
  while (pos != end && is_space(*pos)) ++pos;
  if (pos != end) reject("trailing text after the block index");
  engine.next_ = static_cast<std::uint32_t>(index);
  engine.twisted_ = kWords;
  engine.seeded_ = kWords;
  return engine;
}

std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t s0,
                             std::uint64_t s1, std::uint64_t s2,
                             std::uint64_t s3) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ splitmix64(s0 + 0x1ULL));
  h = splitmix64(h ^ splitmix64(s1 + 0x2ULL));
  h = splitmix64(h ^ splitmix64(s2 + 0x3ULL));
  h = splitmix64(h ^ splitmix64(s3 + 0x4ULL));
  return h;
}

Rng Rng::fork() {
  std::uniform_int_distribution<std::uint64_t> dist;
  return Rng(dist(engine_));
}

double Rng::uniform(double lo, double hi) {
  TALON_EXPECTS(lo <= hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  TALON_EXPECTS(lo <= hi);
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double stddev) {
  TALON_EXPECTS(stddev >= 0.0);
  if (stddev == 0.0) return 0.0;
  std::normal_distribution<double> dist(0.0, stddev);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(clamped);
  return dist(engine_);
}

std::string Rng::save_state() const { return engine_.state_text(); }

void Rng::restore_state(const std::string& state) {
  engine_ = Mt19937_64::from_state_text(state);
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  TALON_EXPECTS(n >= 0 && k >= 0 && k <= n);
  // Partial Fisher-Yates: O(n) setup, O(k) draws.
  std::vector<int> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    const int j = uniform_int(i, n - 1);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(k));
  return pool;
}

}  // namespace talon
