// Property-based tests: invariants checked over randomized inputs drawn
// from the corpus generators, swept across seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "bpe/bpe_tokenizer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "labels/iob.h"
#include "segment/segmenter.h"
#include "text/normalizer.h"
#include "text/word_tokenizer.h"
#include "weaksup/weak_labeler.h"

namespace goalex {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

std::vector<data::Objective> RandomObjectives(uint64_t seed, size_t count) {
  data::SustainabilityGoalsConfig config;
  config.seed = seed;
  config.objective_count = count;
  return data::GenerateSustainabilityGoals(config);
}

// Invariant: every weak-labeled span, read back out of the text via token
// offsets, reproduces the annotation value (up to whitespace), for every
// matched annotation.
TEST_P(SeededProperty, WeakLabelSpansReconstructAnnotationValues) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  weaksup::WeakLabeler labeler(&catalog);
  for (const data::Objective& objective :
       RandomObjectives(GetParam(), 60)) {
    weaksup::WeakLabeling labeling = labeler.Label(objective);
    std::vector<labels::Span> spans =
        catalog.DecodeSpans(labeling.label_ids);
    for (const labels::Span& span : spans) {
      const std::string& kind =
          catalog.kinds()[static_cast<size_t>(span.kind)];
      auto annotated = objective.AnnotationValue(kind);
      ASSERT_TRUE(annotated.has_value())
          << "span of kind " << kind << " without annotation in: "
          << objective.text;
      size_t begin = labeling.tokens[span.begin].begin;
      size_t end = labeling.tokens[span.end - 1].end;
      std::string reconstructed = objective.text.substr(begin, end - begin);
      EXPECT_EQ(eval::NormalizeFieldValue(reconstructed),
                eval::NormalizeFieldValue(*annotated))
          << objective.text;
    }
  }
}

// Invariant: matched + unmatched == non-empty annotations with schema
// kinds, per objective.
TEST_P(SeededProperty, WeakLabelAccounting) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  weaksup::WeakLabeler labeler(&catalog);
  for (const data::Objective& objective :
       RandomObjectives(GetParam() + 100, 60)) {
    weaksup::WeakLabeling labeling = labeler.Label(objective);
    size_t matched_spans = catalog.DecodeSpans(labeling.label_ids).size();
    size_t non_empty = 0;
    for (const data::Annotation& a : objective.annotations) {
      if (!a.value.empty()) ++non_empty;
    }
    // Spans can differ from matched annotations when values overlap in the
    // text (later annotations overwrite, possibly splitting a span), but
    // the count is bounded by twice the annotation count.
    EXPECT_LE(matched_spans + labeling.unmatched_kinds.size(),
              2 * non_empty);
    EXPECT_LE(labeling.unmatched_kinds.size(), non_empty);
  }
}

// Invariant: IOB decode(encode(spans)) is the identity for non-adjacent
// same-kind spans produced by DecodeSpans itself (idempotence).
TEST_P(SeededProperty, IobDecodeEncodeIdempotent) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    size_t length = 1 + rng.NextIndex(30);
    std::vector<labels::LabelId> ids(length);
    for (labels::LabelId& id : ids) {
      id = static_cast<labels::LabelId>(
          rng.NextIndex(static_cast<size_t>(catalog.label_count())));
    }
    std::vector<labels::Span> first = catalog.DecodeSpans(ids);
    std::vector<labels::LabelId> reencoded =
        catalog.EncodeSpans(length, first);
    EXPECT_EQ(catalog.DecodeSpans(reencoded), first);
  }
}

// Invariant: BPE subwords concatenate exactly to their source word, and
// every non-<unk> id round-trips through the vocabulary.
TEST_P(SeededProperty, BpeConcatenationAndVocabRoundTrip) {
  std::vector<std::string> corpus;
  for (const data::Objective& o : RandomObjectives(GetParam(), 80)) {
    corpus.push_back(o.text);
  }
  bpe::BpeModel model = bpe::BpeModel::Train(corpus, 800);
  text::WordTokenizer tokenizer;
  for (size_t i = 0; i < 10 && i < corpus.size(); ++i) {
    std::vector<std::string> words =
        tokenizer.TokenizeToStrings(corpus[i]);
    std::vector<bpe::Subword> subwords = model.EncodeWords(words);
    std::string current;
    size_t word_index = 0;
    for (const bpe::Subword& sw : subwords) {
      if (sw.is_word_start && !current.empty()) {
        EXPECT_EQ(current, words[word_index]);
        ++word_index;
        current.clear();
      }
      current += sw.text;
      if (sw.id != bpe::Vocab::kUnkId) {
        EXPECT_EQ(model.vocab().GetToken(sw.id), sw.text);
      }
    }
    if (!current.empty()) EXPECT_EQ(current, words[word_index]);
  }
}

// The string-keyed BPE merge loop the tokenizer shipped with, kept as the
// oracle for the compiled encoder: split the word at UTF-8 lead bytes, then
// keep joining the adjacent pair whose "left\x1Fright" key has the lowest
// rank. The search starts below the number of distinct keys.
class ReferenceBpe {
 public:
  explicit ReferenceBpe(const bpe::BpeModel& model) : model_(model) {
    const std::vector<bpe::MergeRule>& merges = model.merges();
    for (size_t i = 0; i < merges.size(); ++i) {
      ranks_[merges[i].left + '\x1F' + merges[i].right] = i;
    }
  }

  std::vector<bpe::Subword> EncodeWords(
      const std::vector<std::string>& words) const {
    std::vector<bpe::Subword> out;
    for (size_t w = 0; w < words.size(); ++w) {
      const std::string word =
          model_.lowercase() ? AsciiToLower(words[w]) : words[w];
      std::vector<std::string> symbols;
      for (size_t i = 0; i < word.size();) {
        const unsigned char b = static_cast<unsigned char>(word[i]);
        size_t length = (b & 0xE0) == 0xC0   ? 2
                        : (b & 0xF0) == 0xE0 ? 3
                        : (b & 0xF8) == 0xF0 ? 4
                                             : 1;
        length = std::min(length, word.size() - i);
        symbols.push_back(word.substr(i, length));
        i += length;
      }
      while (symbols.size() > 1) {
        size_t best_rank = ranks_.size();
        size_t best_pos = symbols.size();
        for (size_t i = 0; i + 1 < symbols.size(); ++i) {
          auto it = ranks_.find(symbols[i] + '\x1F' + symbols[i + 1]);
          if (it != ranks_.end() && it->second < best_rank) {
            best_rank = it->second;
            best_pos = i;
          }
        }
        if (best_pos == symbols.size()) break;
        symbols[best_pos] += symbols[best_pos + 1];
        symbols.erase(symbols.begin() + static_cast<std::ptrdiff_t>(best_pos) +
                      1);
      }
      for (size_t p = 0; p < symbols.size(); ++p) {
        out.push_back(bpe::Subword{symbols[p],
                                   model_.vocab().GetId(symbols[p]), w,
                                   p == 0});
      }
    }
    return out;
  }

 private:
  const bpe::BpeModel& model_;
  std::unordered_map<std::string, size_t> ranks_;
};

::testing::AssertionResult SameSubwords(const std::vector<bpe::Subword>& got,
                                        const std::vector<bpe::Subword>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " subwords, want " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].text != want[i].text || got[i].id != want[i].id ||
        got[i].word_index != want[i].word_index ||
        got[i].is_word_start != want[i].is_word_start) {
      return ::testing::AssertionFailure()
             << "subword " << i << ": got '" << got[i].text << "' id "
             << got[i].id << " word " << got[i].word_index << " start "
             << got[i].is_word_start << ", want '" << want[i].text << "' id "
             << want[i].id << " word " << want[i].word_index << " start "
             << want[i].is_word_start;
    }
  }
  return ::testing::AssertionSuccess();
}

// One random character: ASCII letters of both cases, digits, punctuation,
// valid 2-4 byte UTF-8 (some in the training alphabet, some not), lone
// continuation bytes, truncated multi-byte sequences and invalid lead bytes.
std::string RandomCharacter(Rng& rng) {
  static const char* const kMultiByte[] = {
      "\xC3\xA9", "\xC3\xBC", "\xC3\x9F", "\xC3\x89",  // é ü ß É (trained)
      "\xE2\x82\xAC", "\xE2\x80\x93", "\xE2\x82\x82",  // € – ₂ (trained)
      "\xF0\x9F\x8C\x8D",                              // 🌍 (trained)
      "\xC5\x93", "\xE4\xB8\xAD", "\xF0\x9D\x94\xB8",  // œ 中 𝔸 (not)
  };
  switch (rng.NextIndex(9)) {
    case 0:
    case 1:
      return std::string(1, static_cast<char>('a' + rng.NextIndex(26)));
    case 2:
      return std::string(1, static_cast<char>('A' + rng.NextIndex(26)));
    case 3:
      return std::string(1, static_cast<char>('0' + rng.NextIndex(10)));
    case 4:
      return std::string(1, "%.,-'/()$&+"[rng.NextIndex(11)]);
    case 5:
    case 6:
      return kMultiByte[rng.NextIndex(std::size(kMultiByte))];
    case 7:  // A lone continuation byte or an invalid lead byte.
      return std::string(1, static_cast<char>(rng.NextIndex(2) == 0
                                                  ? 0x80 + rng.NextIndex(64)
                                                  : 0xF8 + rng.NextIndex(8)));
    default: {  // A multi-byte character cut short.
      const std::string full = kMultiByte[rng.NextIndex(std::size(kMultiByte))];
      return full.substr(0, 1 + rng.NextIndex(full.size() - 1));
    }
  }
}

// A random word: a corpus word as is, a corpus word with one character
// replaced or its case flipped, or a string of 1-12 random characters.
std::string RandomWord(Rng& rng, const std::vector<std::string>& known) {
  const size_t kind = rng.NextIndex(4);
  if (kind < 2) {
    std::string word = known[rng.NextIndex(known.size())];
    if (kind == 1) {
      const size_t at = rng.NextIndex(word.size());
      const unsigned char c = static_cast<unsigned char>(word[at]);
      if (c < 0x80 && rng.NextIndex(2) == 0) {
        word[at] = static_cast<char>(std::isupper(c) ? std::tolower(c)
                                                     : std::toupper(c));
      } else {
        word.replace(at, 1, RandomCharacter(rng));
      }
    }
    return word;
  }
  std::string word;
  for (size_t n = 1 + rng.NextIndex(12); n > 0; --n) {
    word += RandomCharacter(rng);
  }
  return word;
}

// Invariant: the compiled encoder returns exactly what the string-keyed
// merge loop returns (text, id, word index, word start) for every word,
// across merge counts, cased and lowercase models, before and after
// Freeze() and through a Serialize -> Deserialize round trip.
TEST(BpeEncodeProperty, CompiledEncoderMatchesStringKeyedReference) {
  std::vector<std::string> corpus;
  for (const data::Objective& o : RandomObjectives(42, 300)) {
    corpus.push_back(o.text);
  }
  // The generator's vocabulary runs out of productive pairs below 1000
  // merges; pseudo-words built from syllables, each seen twice, carry
  // training on to 2600.
  static const char* const kSyllables[] = {
      "ka", "lo", "mer", "tis", "un", "pre", "vo", "zan", "qui", "ex",
      "bra", "del", "fu", "gor", "hy", "jin", "Kre", "Lu", "st", "op"};
  Rng words_rng(11);
  std::string pseudo;
  for (int i = 0; i < 2000; ++i) {
    std::string word;
    for (size_t n = 2 + words_rng.NextIndex(3); n > 0; --n) {
      word += kSyllables[words_rng.NextIndex(std::size(kSyllables))];
    }
    pseudo += word + " " + word + " ";
  }
  corpus.push_back(pseudo);
  // Multi-byte characters in the training alphabet, merged into subwords.
  for (int i = 0; i < 3; ++i) {
    corpus.push_back("R\xC3\xA9" "duire les \xC3\xA9missions de CO\xE2\x82\x82 "
                     "\xE2\x80\x93 Gr\xC3\xBC" "nstrom f\xC3\xBCr Stra\xC3\x9F"
                     "e, 5 \xE2\x82\xAC " "\xC3\x89nergie \xF0\x9F\x8C\x8D");
  }
  text::WordTokenizer tokenizer;
  std::vector<std::string> known;
  for (const std::string& doc : corpus) {
    for (std::string& word : tokenizer.TokenizeToStrings(doc)) {
      known.push_back(std::move(word));
    }
  }

  constexpr size_t kWordsPerModel = 16384;
  size_t words_checked = 0;
  Rng rng(7);
  for (size_t merges : {0, 50, 400, 2600}) {
    for (bool lowercase : {false, true}) {
      SCOPED_TRACE(testing::Message() << merges << " merges, lowercase "
                                      << lowercase);
      bpe::BpeModel model = bpe::BpeModel::Train(corpus, merges, lowercase);
      ASSERT_EQ(model.merges().size(), merges);
      auto restored = bpe::BpeModel::Deserialize(model.Serialize());
      ASSERT_TRUE(restored.ok()) << restored.status();
      const ReferenceBpe reference(model);

      std::vector<std::vector<std::string>> batches;
      for (size_t n = 0; n < kWordsPerModel;) {
        std::vector<std::string> batch(1 + rng.NextIndex(8));
        for (std::string& word : batch) word = RandomWord(rng, known);
        n += batch.size();
        batches.push_back(std::move(batch));
      }
      // Unfrozen, the first half fills the caches; frozen, the first half
      // hits them and the second half takes the cold path.
      const size_t half = batches.size() / 2;
      for (size_t b = 0; b < batches.size(); ++b) {
        if (b == half) {
          model.Freeze();
          restored->Freeze();
          for (size_t c = 0; c < half; ++c) {
            const auto want = reference.EncodeWords(batches[c]);
            ASSERT_TRUE(SameSubwords(model.EncodeWords(batches[c]), want));
            ASSERT_TRUE(SameSubwords(restored->EncodeWords(batches[c]), want));
          }
        }
        const auto want = reference.EncodeWords(batches[b]);
        ASSERT_TRUE(SameSubwords(model.EncodeWords(batches[b]), want));
        ASSERT_TRUE(SameSubwords(restored->EncodeWords(batches[b]), want));
        words_checked += batches[b].size();
      }
    }
  }
  EXPECT_GE(words_checked, 100000u);
}

// A character outside the alphabet becomes <unk> but never merges, even
// with a hand-built rule whose left part is the "<unk>" token itself.
TEST(BpeEncodeProperty, OutOfAlphabetCharactersNeverMerge) {
  auto model = bpe::BpeModel::Deserialize(
      "bpe_v1\n0\n1\n<unk>\x1F" "a\n6\na\n<unk>a\n");
  ASSERT_TRUE(model.ok()) << model.status();
  const ReferenceBpe reference(*model);
  const std::vector<std::string> words = {"\xE2\x82\xAC" "a", "qa", "aa"};
  const std::vector<bpe::Subword> got = model->EncodeWords(words);
  EXPECT_TRUE(SameSubwords(got, reference.EncodeWords(words)));
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].text, "\xE2\x82\xAC");
  EXPECT_EQ(got[0].id, bpe::Vocab::kUnkId);
}

// Invariant: normalization is idempotent.
TEST_P(SeededProperty, NormalizeIdempotent) {
  for (const data::Objective& o : RandomObjectives(GetParam() + 7, 40)) {
    std::string once = text::Normalize(o.text);
    EXPECT_EQ(text::Normalize(once), once);
  }
}

// Invariant: word-token offsets tile the text (non-overlapping, ordered,
// each slice reproduces its token).
TEST_P(SeededProperty, WordTokenOffsetsAreConsistent) {
  text::WordTokenizer tokenizer;
  for (const data::Objective& o : RandomObjectives(GetParam() + 13, 40)) {
    size_t previous_end = 0;
    for (const text::Token& t : tokenizer.Tokenize(o.text)) {
      EXPECT_GE(t.begin, previous_end);
      EXPECT_LT(t.begin, t.end);
      EXPECT_EQ(o.text.substr(t.begin, t.end - t.begin), t.text);
      previous_end = t.end;
    }
  }
}

// Invariant: segmentation covers orderly, non-overlapping slices of the
// objective, and single-target objectives come back unchanged.
TEST_P(SeededProperty, SegmenterSlicesAreOrderedAndExact) {
  segment::ObjectiveSegmenter segmenter;
  for (const data::Objective& o : RandomObjectives(GetParam() + 19, 40)) {
    size_t previous_end = 0;
    for (const segment::Segment& s : segmenter.Split(o.text)) {
      EXPECT_GE(s.begin, previous_end);
      EXPECT_LE(s.end, o.text.size());
      EXPECT_EQ(o.text.substr(s.begin, s.end - s.begin), s.text);
      previous_end = s.end;
    }
  }
}

// Invariant: the evaluator's counts satisfy tp + fn == number of annotated
// fields when predictions are exactly the gold annotations.
TEST_P(SeededProperty, PerfectPredictionsScorePerfectRecall) {
  std::vector<data::Objective> objectives =
      RandomObjectives(GetParam() + 23, 50);
  eval::FieldEvaluator evaluator(data::SustainabilityGoalKinds());
  for (const data::Objective& o : objectives) {
    data::DetailRecord record;
    for (const data::Annotation& a : o.annotations) {
      if (!a.value.empty()) record.fields[a.kind] = a.value;
    }
    evaluator.Add(o, record);
  }
  eval::Prf prf = evaluator.Overall();
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
  EXPECT_DOUBLE_EQ(prf.f1, 1.0);
  EXPECT_EQ(evaluator.Total().fp, 0);
  EXPECT_EQ(evaluator.Total().fn, 0);
}

}  // namespace
}  // namespace goalex
