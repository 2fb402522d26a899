#ifndef GOALEX_WEAKSUP_WEAK_LABELER_H_
#define GOALEX_WEAKSUP_WEAK_LABELER_H_

#include <string>
#include <vector>

#include "data/schema.h"
#include "labels/iob.h"
#include "obs/metrics.h"
#include "text/word_tokenizer.h"

namespace goalex::weaksup {

/// Options for the weakly supervised token-labeling algorithm.
struct WeakLabelerOptions {
  /// Exact token matching (the paper's deployed configuration). When false,
  /// the fuzzy extension listed as future work is enabled: matching is
  /// case-insensitive and skips pure-punctuation tokens on both sides.
  bool exact_match = true;
  /// When several positions match the annotation value, label the first one
  /// (Algorithm 1 takes the first found index).
  bool first_match_only = true;
};

/// Result of weak labeling one objective.
struct WeakLabeling {
  /// Word-level tokens of the objective text.
  std::vector<text::Token> tokens;
  /// One IOB label id per token.
  std::vector<labels::LabelId> label_ids;
  /// Annotation kinds whose value could not be located in the text (the
  /// exact-matching limitation discussed in Section 5.3).
  std::vector<std::string> unmatched_kinds;
  /// Annotation kinds the labeler skipped without attempting a match:
  /// kinds outside the schema, or non-empty values that tokenize to
  /// nothing. Tracked so coverage statistics do not count them as matched.
  std::vector<std::string> skipped_kinds;
};

/// Implements Algorithm 1 (WeakSupervisionTokenLabeling): converts coarse
/// objective-level annotations into token-level IOB labels by locating each
/// annotation value's token sequence inside the objective's token sequence.
class WeakLabeler {
 public:
  WeakLabeler(const labels::LabelCatalog* catalog, WeakLabelerOptions options)
      : catalog_(catalog), options_(options) {
    if (obs::Active()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      matched_counter_ = registry.GetCounter("weaklabel.annotations.matched");
      unmatched_counter_ =
          registry.GetCounter("weaklabel.annotations.unmatched");
      skipped_counter_ = registry.GetCounter("weaklabel.annotations.skipped");
      label_seconds_hist_ =
          registry.GetLatencyHistogram("weaklabel.label.seconds");
    }
  }

  explicit WeakLabeler(const labels::LabelCatalog* catalog)
      : WeakLabeler(catalog, WeakLabelerOptions()) {}

  /// Runs Algorithm 1 on one objective. Annotation kinds not present in the
  /// catalog and empty annotation values are skipped (they carry no token
  /// supervision). Unlocatable values are recorded in `unmatched_kinds`.
  WeakLabeling Label(const data::Objective& objective) const;

  /// Labels a whole training set; the i-th result corresponds to the i-th
  /// objective. `num_threads` fans the per-objective work out with
  /// exec::ParallelMap (<= 0 = hardware concurrency, 1 = serial); the
  /// output is order-preserving and identical for every thread count.
  std::vector<WeakLabeling> LabelAll(
      const std::vector<data::Objective>& objectives,
      int num_threads = 1) const;

  const labels::LabelCatalog& catalog() const { return *catalog_; }
  const WeakLabelerOptions& options() const { return options_; }

 private:
  /// Returns the first index s such that haystack[s : ...] matches
  /// `needle` under the configured matching mode, or -1.
  int64_t FindSubsequence(const std::vector<text::Token>& haystack,
                          const std::vector<text::Token>& needle) const;

  /// Fuzzy greedy alignment of `needle` against `haystack` starting at
  /// `start`. Returns the end index (exclusive) of the matched window, or
  /// haystack.size() + 1 when no alignment exists.
  static size_t AlignFuzzy(const std::vector<text::Token>& haystack,
                           const std::vector<text::Token>& needle,
                           size_t start);

  const labels::LabelCatalog* catalog_;  // Not owned.
  WeakLabelerOptions options_;
  text::WordTokenizer tokenizer_;

  // Observability handles (null when instrumentation is inactive at
  // construction). Counters are atomic, so concurrent LabelAll workers
  // update them race-free.
  obs::Counter* matched_counter_ = nullptr;
  obs::Counter* unmatched_counter_ = nullptr;
  obs::Counter* skipped_counter_ = nullptr;
  obs::Histogram* label_seconds_hist_ = nullptr;
};

/// Statistics over a weak-labeled corpus, used by the ablation benches and
/// by the coverage diagnostics the deployment discussion calls for.
struct WeakLabelStats {
  size_t objective_count = 0;
  size_t annotation_count = 0;   ///< Non-empty annotations seen.
  size_t matched_count = 0;      ///< Annotations located in the text.
  size_t skipped_count = 0;      ///< Out-of-schema / token-less annotations.
  size_t labeled_token_count = 0;
  size_t total_token_count = 0;

  /// Match rate over the annotations the labeler could attempt (non-empty,
  /// in-schema, tokenizable). Skipped annotations carry no token signal
  /// either way, so they are excluded from the denominator.
  double MatchRate() const {
    size_t matchable = annotation_count - skipped_count;
    return matchable == 0
               ? 0.0
               : static_cast<double>(matched_count) / matchable;
  }
};

/// Aggregates match statistics over labelings produced by LabelAll.
WeakLabelStats ComputeStats(const std::vector<data::Objective>& objectives,
                            const std::vector<WeakLabeling>& labelings);

}  // namespace goalex::weaksup

#endif  // GOALEX_WEAKSUP_WEAK_LABELER_H_
