#include "weaksup/weak_labeler.h"

#include <cctype>

#include "common/check.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "obs/scope.h"
#include "runtime/thread_pool.h"

namespace goalex::weaksup {
namespace {

bool IsPunctuationToken(const std::string& token) {
  for (char c : token) {
    if (std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return !token.empty();
}

bool TokensEqualFuzzy(const std::string& a, const std::string& b) {
  return AsciiToLower(a) == AsciiToLower(b);
}

}  // namespace

int64_t WeakLabeler::FindSubsequence(
    const std::vector<text::Token>& haystack,
    const std::vector<text::Token>& needle) const {
  if (needle.empty()) return -1;

  if (options_.exact_match) {
    // The length guard only holds for exact matching; in fuzzy mode the
    // needle may legitimately be longer than the haystack because
    // annotator punctuation is tolerated ("net - zero" vs "net zero").
    if (needle.size() > haystack.size()) return -1;
    for (size_t s = 0; s + needle.size() <= haystack.size(); ++s) {
      bool match = true;
      for (size_t i = 0; i < needle.size(); ++i) {
        if (haystack[s + i].text != needle[i].text) {
          match = false;
          break;
        }
      }
      if (match) return static_cast<int64_t>(s);
    }
    return -1;
  }

  // Fuzzy mode: greedy alignment that compares tokens case-insensitively,
  // keeps matching punctuation inside the span, and tolerates punctuation
  // present on only one side ("net zero" vs "net-zero").
  for (size_t s = 0; s < haystack.size(); ++s) {
    if (AlignFuzzy(haystack, needle, s) != haystack.size() + 1) {
      return static_cast<int64_t>(s);
    }
  }
  return -1;
}

size_t WeakLabeler::AlignFuzzy(const std::vector<text::Token>& haystack,
                               const std::vector<text::Token>& needle,
                               size_t start) {
  size_t h = start;
  size_t n = 0;
  size_t last_matched_end = start;
  while (h < haystack.size() && n < needle.size()) {
    if (TokensEqualFuzzy(haystack[h].text, needle[n].text)) {
      ++h;
      ++n;
      last_matched_end = h;
      continue;
    }
    if (IsPunctuationToken(needle[n].text)) {
      ++n;  // Punctuation the annotator wrote but the text lacks.
      continue;
    }
    if (IsPunctuationToken(haystack[h].text) && n > 0) {
      ++h;  // Punctuation in the text the annotator skipped.
      continue;
    }
    return haystack.size() + 1;  // Mismatch on a content token.
  }
  // Any remaining needle tokens must be punctuation-only.
  while (n < needle.size() && IsPunctuationToken(needle[n].text)) ++n;
  if (n < needle.size()) return haystack.size() + 1;
  // A window that never matched a content token (possible when the value
  // is punctuation-only) is zero-length: it covers no haystack token, so
  // treating it as a match would label a token that is not part of the
  // value. Report no alignment instead.
  if (last_matched_end <= start) return haystack.size() + 1;
  return last_matched_end;
}

WeakLabeling WeakLabeler::Label(const data::Objective& objective) const {
  obs::ScopedTimer label_timer(label_seconds_hist_);
  WeakLabeling result;
  // Step 1 of Algorithm 1: tokenize the objective into T.
  result.tokens = tokenizer_.Tokenize(objective.text);
  // Step 2: initialize all weak labels to O.
  result.label_ids.assign(result.tokens.size(),
                          labels::LabelCatalog::kOutsideId);

  // Step 3: for each annotated (k, v) pair.
  for (const data::Annotation& annotation : objective.annotations) {
    if (annotation.value.empty()) continue;
    auto kind = catalog_->KindIndex(annotation.kind);
    if (!kind.ok()) {
      // Kind outside the schema carries no signal; record it so match
      // statistics do not silently count it as located.
      result.skipped_kinds.push_back(annotation.kind);
      continue;
    }

    // Step 4: tokenize the annotation value into U.
    std::vector<text::Token> value_tokens =
        tokenizer_.Tokenize(annotation.value);
    if (value_tokens.empty()) {
      result.skipped_kinds.push_back(annotation.kind);
      continue;
    }

    // Step 5: find the start index s of U within T.
    int64_t s = FindSubsequence(result.tokens, value_tokens);
    if (s < 0) {
      result.unmatched_kinds.push_back(annotation.kind);
      continue;
    }

    // Steps 7-9: assign B-k to the first token and I-k to the rest. In
    // fuzzy mode the matched window may differ in length from |U| because
    // punctuation is tolerated on either side; recompute its true end.
    size_t end = static_cast<size_t>(s) + value_tokens.size();
    if (!options_.exact_match) {
      size_t aligned_end =
          AlignFuzzy(result.tokens, value_tokens, static_cast<size_t>(s));
      // A zero-length or failed realignment covers no token; writing B-k
      // at `s` would label a token that is not part of the value.
      if (aligned_end <= static_cast<size_t>(s) ||
          aligned_end > result.tokens.size()) {
        result.unmatched_kinds.push_back(annotation.kind);
        continue;
      }
      end = aligned_end;
    }
    GOALEX_CHECK_LE(end, result.tokens.size());
    result.label_ids[static_cast<size_t>(s)] = catalog_->BeginId(*kind);
    for (size_t i = static_cast<size_t>(s) + 1; i < end; ++i) {
      result.label_ids[i] = catalog_->InsideId(*kind);
    }
    if (matched_counter_ != nullptr) matched_counter_->Increment();
  }
  if (skipped_counter_ != nullptr) {
    skipped_counter_->Increment(result.skipped_kinds.size());
    unmatched_counter_->Increment(result.unmatched_kinds.size());
  }
  return result;
}

std::vector<WeakLabeling> WeakLabeler::LabelAll(
    const std::vector<data::Objective>& objectives, int num_threads) const {
  std::vector<WeakLabeling> out(objectives.size());
  runtime::ThreadPool pool(num_threads);
  exec::ParallelMap(pool, objectives.size(), [&](size_t i) {
    out[i] = Label(objectives[i]);
  });
  return out;
}

WeakLabelStats ComputeStats(const std::vector<data::Objective>& objectives,
                            const std::vector<WeakLabeling>& labelings) {
  GOALEX_CHECK_EQ(objectives.size(), labelings.size());
  WeakLabelStats stats;
  stats.objective_count = objectives.size();
  for (size_t i = 0; i < objectives.size(); ++i) {
    size_t non_empty = 0;
    for (const data::Annotation& a : objectives[i].annotations) {
      if (!a.value.empty()) ++non_empty;
    }
    stats.annotation_count += non_empty;
    stats.skipped_count += labelings[i].skipped_kinds.size();
    // Only annotations the labeler actually located count as matches:
    // non-empty minus the unlocatable ones minus the out-of-schema /
    // token-less ones it skipped without attempting a match.
    stats.matched_count += non_empty - labelings[i].unmatched_kinds.size() -
                           labelings[i].skipped_kinds.size();
    stats.total_token_count += labelings[i].tokens.size();
    for (labels::LabelId id : labelings[i].label_ids) {
      if (id != labels::LabelCatalog::kOutsideId) ++stats.labeled_token_count;
    }
  }
  return stats;
}

}  // namespace goalex::weaksup
