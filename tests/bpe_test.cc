#include "bpe/bpe_tokenizer.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bpe/vocab.h"
#include "common/string_util.h"

namespace goalex::bpe {
namespace {

std::vector<std::string> CorpusSmall() {
  return {
      "reduce emissions by 2030",
      "reduce energy consumption",
      "reduce waste and emissions",
      "net zero emissions by 2040",
      "energy consumption reduction targets",
  };
}

TEST(VocabTest, SpecialTokensHaveFixedIds) {
  Vocab v;
  EXPECT_EQ(v.GetId("<pad>"), Vocab::kPadId);
  EXPECT_EQ(v.GetId("<unk>"), Vocab::kUnkId);
  EXPECT_EQ(v.GetId("<s>"), Vocab::kBosId);
  EXPECT_EQ(v.GetId("</s>"), Vocab::kEosId);
  EXPECT_EQ(v.size(), 4u);
}

TEST(VocabTest, AddIsIdempotent) {
  Vocab v;
  TokenId a = v.AddToken("re");
  TokenId b = v.AddToken("re");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 5u);
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.GetId("xyzzy"), Vocab::kUnkId);
  EXPECT_FALSE(v.Contains("xyzzy"));
}

TEST(VocabTest, RoundTrip) {
  Vocab v;
  TokenId id = v.AddToken("emission");
  EXPECT_EQ(v.GetToken(id), "emission");
}

TEST(BpeTrainTest, LearnsMerges) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 50);
  EXPECT_GT(model.merges().size(), 0u);
  EXPECT_LE(model.merges().size(), 50u);
  // Frequent word "reduce" should be representable in few pieces.
  std::vector<Subword> pieces = model.Encode("reduce");
  EXPECT_LE(pieces.size(), 3u);
}

TEST(BpeTrainTest, ZeroMergesGivesCharacters) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 0);
  std::vector<Subword> pieces = model.Encode("net");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].text, "n");
  EXPECT_EQ(pieces[1].text, "e");
  EXPECT_EQ(pieces[2].text, "t");
}

TEST(BpeEncodeTest, WordIndexAndWordStart) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 30);
  std::vector<Subword> pieces = model.Encode("reduce emissions");
  ASSERT_FALSE(pieces.empty());
  EXPECT_TRUE(pieces[0].is_word_start);
  EXPECT_EQ(pieces[0].word_index, 0u);
  // Exactly two word_start subwords (one per word).
  int starts = 0;
  for (const Subword& p : pieces) starts += p.is_word_start ? 1 : 0;
  EXPECT_EQ(starts, 2);
  // word_index is non-decreasing and ends at 1.
  EXPECT_EQ(pieces.back().word_index, 1u);
}

TEST(BpeEncodeTest, SubwordsConcatenateToWord) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 20);
  std::vector<Subword> pieces = model.Encode("consumption");
  std::string joined;
  for (const Subword& p : pieces) joined += p.text;
  EXPECT_EQ(joined, "consumption");
}

TEST(BpeEncodeTest, UnseenCharactersMapToUnk) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 10);
  std::vector<Subword> pieces = model.Encode("\xE2\x82\xAC");  // euro sign
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].id, Vocab::kUnkId);
}

TEST(BpeEncodeTest, LowercaseModeFoldsCase) {
  BpeModel cased = BpeModel::Train(CorpusSmall(), 30, /*lowercase=*/false);
  BpeModel uncased = BpeModel::Train(CorpusSmall(), 30, /*lowercase=*/true);
  std::vector<Subword> cased_pieces = cased.Encode("REDUCE");
  std::vector<Subword> uncased_pieces = uncased.Encode("REDUCE");
  // Uncased model sees "reduce", a trained word, so it uses fewer pieces
  // (or at least never maps to <unk>).
  for (const Subword& p : uncased_pieces) {
    EXPECT_NE(p.id, Vocab::kUnkId);
  }
  EXPECT_LE(uncased_pieces.size(), cased_pieces.size());
}

TEST(BpeEncodeTest, DeterministicAcrossCalls) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 40);
  std::vector<Subword> a = model.Encode("energy consumption targets");
  std::vector<Subword> b = model.Encode("energy consumption targets");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].text, b[i].text);
  }
}

TEST(BpeEncodeTest, TrainingIsDeterministic) {
  BpeModel a = BpeModel::Train(CorpusSmall(), 40);
  BpeModel b = BpeModel::Train(CorpusSmall(), 40);
  ASSERT_EQ(a.merges().size(), b.merges().size());
  for (size_t i = 0; i < a.merges().size(); ++i) {
    EXPECT_EQ(a.merges()[i], b.merges()[i]);
  }
}

TEST(BpeSerializeTest, RoundTripPreservesEncoding) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 40, /*lowercase=*/true);
  std::string blob = model.Serialize();
  auto restored = BpeModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  std::vector<Subword> a = model.Encode("Reduce energy by 2030");
  std::vector<Subword> b = restored->Encode("Reduce energy by 2030");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
  }
  EXPECT_EQ(restored->vocab().size(), model.vocab().size());
}

TEST(BpeSerializeTest, RejectsGarbage) {
  EXPECT_FALSE(BpeModel::Deserialize("not a model").ok());
  EXPECT_FALSE(BpeModel::Deserialize("").ok());
}

// Serialize() output with line `index` (0-based) replaced by `line`.
std::string WithLine(const std::string& blob, size_t index,
                     const std::string& line) {
  std::vector<std::string> lines = StrSplit(blob, '\n');
  lines.at(index) = line;
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

TEST(BpeSerializeTest, RejectsDuplicatedVocabularyLine) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 10);
  const std::string blob = model.Serialize();
  // Header, lowercase flag, merge count, merges, vocab count, then tokens
  // from id 4: overwrite id 6's line with id 5's token.
  const size_t first_token_line = 3 + model.merges().size() + 1;
  const std::string corrupt = WithLine(blob, first_token_line + 2,
                                       model.vocab().GetToken(5));
  auto restored = BpeModel::Deserialize(corrupt);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST(BpeSerializeTest, RejectsMergePairListedTwice) {
  // Train recounts pairs after every merge and a merged pair's count drops
  // to zero, so no trained model lists a pair twice: such a file is
  // corrupt. Here the second merge rule repeats the first.
  BpeModel model = BpeModel::Train(CorpusSmall(), 10);
  ASSERT_GE(model.merges().size(), 2u);
  const MergeRule& first = model.merges()[0];
  auto restored = BpeModel::Deserialize(
      WithLine(model.Serialize(), 4, first.left + "\x1F" + first.right));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  // A hand-built model listing the pair (b, c) at ranks 0 and 2.
  auto hand_built = BpeModel::Deserialize(
      "bpe_v1\n0\n3\nb\x1F" "c\na\x1F" "b\nb\x1F" "c\n9\na\nb\nc\nbc\nab\n");
  ASSERT_FALSE(hand_built.ok());
  EXPECT_EQ(hand_built.status().code(), StatusCode::kDataLoss);
}

TEST(BpeSerializeTest, RejectsMergeRuleOutsideVocabulary) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 10);
  ASSERT_FALSE(model.merges().empty());
  const std::string blob = model.Serialize();
  // Neither 'q' nor 'x' occurs in the corpus.
  auto restored = BpeModel::Deserialize(WithLine(blob, 3, "q\x1Fx"));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  // A rule line holds exactly one separator.
  const MergeRule& rule = model.merges()[0];
  auto doubled = BpeModel::Deserialize(
      WithLine(blob, 3, rule.left + "\x1F" + rule.right + "\x1F"));
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kDataLoss);
}

// StreamPipeline workers share one frozen detector tokenizer. Every thread
// encodes the same words, some in the frozen cache and some not, and must
// get the serial result.
TEST(BpeConcurrencyTest, FrozenModelEncodesIdenticallyFromManyThreads) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 40, /*lowercase=*/true);
  const std::vector<std::string> cached = {"Reduce", "emissions", "2030",
                                           "energy", "consumption"};
  model.EncodeWords(cached);
  model.Freeze();
  std::vector<std::string> words = cached;
  for (const char* word :
       {"Reductions", "caf\xC3\xA9", "\xE2\x82\xAC" "5", "na\xC3\xAFve",
        "\x80zero", "net\xE2\x82", "\xF0\x9F\x8C\x8Dwaste", "q!x",
        "targets", "TARGETS"}) {
    words.push_back(word);
  }
  const std::vector<Subword> serial = model.EncodeWords(words);

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Subword> got = model.EncodeWords(words);
        bool same = got.size() == serial.size();
        for (size_t i = 0; same && i < got.size(); ++i) {
          same = got[i].text == serial[i].text && got[i].id == serial[i].id &&
                 got[i].word_index == serial[i].word_index &&
                 got[i].is_word_start == serial[i].is_word_start;
        }
        if (!same) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(BpeDecodeTest, SkipsSpecials) {
  BpeModel model = BpeModel::Train(CorpusSmall(), 40);
  std::vector<Subword> pieces = model.Encode("reduce");
  std::vector<TokenId> ids = {Vocab::kBosId};
  for (const Subword& p : pieces) ids.push_back(p.id);
  ids.push_back(Vocab::kEosId);
  std::string decoded = model.Decode(ids);
  EXPECT_EQ(decoded.find("<s>"), std::string::npos);
}

}  // namespace
}  // namespace goalex::bpe
