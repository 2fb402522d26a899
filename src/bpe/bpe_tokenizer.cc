#include "bpe/bpe_tokenizer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "text/word_tokenizer.h"

namespace goalex::bpe {
namespace {

constexpr char kRankSep = '\x1F';

// Marks a character outside the alphabet while a word is merged. It
// matches no merge rule (unlike kUnkId, which is also the id of the "<unk>"
// string) and is emitted as <unk>.
constexpr TokenId kNoToken = -1;
constexpr size_t kNoRank = static_cast<size_t>(-1);

uint64_t PairId(TokenId left, TokenId right) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(left)) << 32) |
         static_cast<uint32_t>(right);
}

// Length in bytes of the UTF-8 character starting at `word[i]`, as its lead
// byte declares it, clipped to the end of the word. Any other byte (ASCII,
// a stray continuation byte, an invalid lead byte) is one character.
size_t CharLength(std::string_view word, size_t i) {
  size_t length = 1;
  unsigned char b = static_cast<unsigned char>(word[i]);
  if ((b & 0xE0) == 0xC0) {
    length = 2;
  } else if ((b & 0xF0) == 0xE0) {
    length = 3;
  } else if ((b & 0xF8) == 0xF0) {
    length = 4;
  }
  return std::min(length, word.size() - i);
}

// Splits a word into UTF-8 character symbols.
std::vector<std::string> SplitToChars(const std::string& word) {
  std::vector<std::string> symbols;
  for (size_t i = 0; i < word.size();) {
    const size_t length = CharLength(word, i);
    symbols.push_back(word.substr(i, length));
    i += length;
  }
  return symbols;
}

}  // namespace

BpeModel BpeModel::Train(const std::vector<std::string>& corpus,
                         size_t merge_count, bool lowercase) {
  BpeModel model;
  model.lowercase_ = lowercase;

  // Count unique words across the corpus.
  text::WordTokenizer word_tokenizer;
  std::unordered_map<std::string, int64_t> word_counts;
  for (const std::string& doc : corpus) {
    std::string prepared = lowercase ? AsciiToLower(doc) : doc;
    for (const std::string& w : word_tokenizer.TokenizeToStrings(prepared)) {
      ++word_counts[w];
    }
  }

  // Working representation: each unique word as a symbol sequence + count.
  struct WordEntry {
    std::vector<std::string> symbols;
    int64_t count;
  };
  std::vector<WordEntry> words;
  words.reserve(word_counts.size());
  for (const auto& [word, count] : word_counts) {
    words.push_back(WordEntry{SplitToChars(word), count});
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(words.begin(), words.end(),
            [](const WordEntry& a, const WordEntry& b) {
              return a.symbols < b.symbols;
            });

  // Seed the vocabulary with all single characters.
  for (const WordEntry& entry : words) {
    for (const std::string& symbol : entry.symbols) {
      model.vocab_.AddToken(symbol);
    }
  }

  for (size_t merge = 0; merge < merge_count; ++merge) {
    // Count adjacent symbol pairs. std::map gives deterministic tie-breaks.
    std::map<std::pair<std::string, std::string>, int64_t> pair_counts;
    for (const WordEntry& entry : words) {
      for (size_t i = 0; i + 1 < entry.symbols.size(); ++i) {
        pair_counts[{entry.symbols[i], entry.symbols[i + 1]}] += entry.count;
      }
    }
    if (pair_counts.empty()) break;

    auto best = pair_counts.begin();
    for (auto it = pair_counts.begin(); it != pair_counts.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (best->second < 2) break;  // No productive merges left.

    const std::string& left = best->first.first;
    const std::string& right = best->first.second;
    std::string joined = left + right;
    model.merges_.push_back(MergeRule{left, right});
    model.vocab_.AddToken(joined);

    // Apply the merge to every word.
    for (WordEntry& entry : words) {
      std::vector<std::string>& symbols = entry.symbols;
      size_t write = 0;
      for (size_t read = 0; read < symbols.size(); ++read) {
        if (read + 1 < symbols.size() && symbols[read] == left &&
            symbols[read + 1] == right) {
          symbols[write++] = joined;
          ++read;
        } else {
          if (write != read) symbols[write] = std::move(symbols[read]);
          ++write;
        }
      }
      symbols.resize(write);
    }
  }
  // Every merged string was added to the vocabulary above.
  GOALEX_CHECK_OK(model.Compile());
  return model;
}

Status BpeModel::Compile() {
  for (size_t rank = 0; rank < merges_.size(); ++rank) {
    const MergeRule& rule = merges_[rank];
    const std::string merged = rule.left + rule.right;
    if (!vocab_.Contains(rule.left) || !vocab_.Contains(rule.right) ||
        !vocab_.Contains(merged)) {
      return DataLossError("merge rule " + std::to_string(rank) +
                           " is outside the vocabulary");
    }
    // A pair listed twice keeps its later rank.
    merge_table_[PairId(vocab_.GetId(rule.left), vocab_.GetId(rule.right))] =
        MergeTarget{rank, vocab_.GetId(merged)};
  }
  // Encoding has always searched only below the number of distinct pairs,
  // so when a pair is listed twice the highest ranks never apply.
  const size_t distinct = merge_table_.size();
  std::erase_if(merge_table_, [distinct](const auto& entry) {
    return entry.second.rank >= distinct;
  });
  return Status::Ok();
}

std::vector<BpeModel::Piece> BpeModel::ApplyMerges(
    std::string_view word) const {
  std::vector<Piece> symbols;
  symbols.reserve(word.size());
  for (size_t i = 0; i < word.size();) {
    const size_t length = CharLength(word, i);
    // A character has at most 4 bytes and "<unk>" has 5, so kUnkId here
    // means the character is outside the alphabet.
    const TokenId id = vocab_.GetId(word.substr(i, length));
    symbols.push_back(Piece{id == Vocab::kUnkId ? kNoToken : id, length});
    i += length;
  }

  // pairs[i] is what joining symbols i and i + 1 would give. A merge only
  // changes the pairs on either side of it, so only those are looked up
  // again.
  auto lookup = [this, &symbols](size_t i) {
    auto it = merge_table_.find(PairId(symbols[i].id, symbols[i + 1].id));
    return it == merge_table_.end() ? MergeTarget{kNoRank, 0} : it->second;
  };
  std::vector<MergeTarget> pairs;
  pairs.reserve(symbols.size());
  for (size_t i = 0; i + 1 < symbols.size(); ++i) pairs.push_back(lookup(i));
  while (!pairs.empty()) {
    // The lowest rank wins; the first position breaks ties.
    size_t best = 0;
    for (size_t i = 1; i < pairs.size(); ++i) {
      if (pairs[i].rank < pairs[best].rank) best = i;
    }
    if (pairs[best].rank == kNoRank) break;
    symbols[best].id = pairs[best].merged;
    symbols[best].bytes += symbols[best + 1].bytes;
    symbols.erase(symbols.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(best));
    if (best > 0) pairs[best - 1] = lookup(best - 1);
    if (best < pairs.size()) pairs[best] = lookup(best);
  }
  for (Piece& symbol : symbols) {
    if (symbol.id == kNoToken) symbol.id = Vocab::kUnkId;
  }
  return symbols;
}

std::vector<Subword> BpeModel::EncodeWords(
    const std::vector<std::string>& words) const {
  std::vector<Subword> out;
  std::vector<Piece> computed;
  for (size_t w = 0; w < words.size(); ++w) {
    const std::string prepared =
        lowercase_ ? AsciiToLower(words[w]) : words[w];
    const std::vector<Piece>* pieces = &computed;
    auto cached = cache_.find(prepared);
    if (cached != cache_.end()) {
      pieces = &cached->second;
    } else {
      computed = ApplyMerges(prepared);
      if (!frozen_ && cache_.size() < 200000) {
        cache_.emplace(prepared, computed);
      }
    }
    size_t offset = 0;
    for (size_t p = 0; p < pieces->size(); ++p) {
      const Piece& piece = (*pieces)[p];
      Subword sw;
      sw.text = prepared.substr(offset, piece.bytes);
      sw.id = piece.id;
      sw.word_index = w;
      sw.is_word_start = (p == 0);
      out.push_back(std::move(sw));
      offset += piece.bytes;
    }
  }
  return out;
}

std::vector<Subword> BpeModel::Encode(std::string_view text) const {
  text::WordTokenizer word_tokenizer;
  return EncodeWords(word_tokenizer.TokenizeToStrings(text));
}

std::string BpeModel::Decode(const std::vector<TokenId>& ids) const {
  std::string out;
  for (TokenId id : ids) {
    if (id == Vocab::kPadId || id == Vocab::kBosId || id == Vocab::kEosId) {
      continue;
    }
    if (!out.empty()) out.push_back(' ');
    out += vocab_.GetToken(id);
  }
  return out;
}

std::string BpeModel::Serialize() const {
  std::ostringstream out;
  out << "bpe_v1\n" << (lowercase_ ? 1 : 0) << "\n" << merges_.size() << "\n";
  for (const MergeRule& rule : merges_) {
    out << rule.left << kRankSep << rule.right << "\n";
  }
  // Persist the full vocabulary (character alphabet is not derivable from
  // merges alone).
  out << vocab_.size() << "\n";
  for (size_t i = 4; i < vocab_.size(); ++i) {
    out << vocab_.GetToken(static_cast<TokenId>(i)) << "\n";
  }
  return out.str();
}

StatusOr<BpeModel> BpeModel::Deserialize(std::string_view data) {
  std::vector<std::string> lines = StrSplit(data, '\n');
  size_t pos = 0;
  auto next_line = [&]() -> StatusOr<std::string> {
    if (pos >= lines.size()) {
      return DataLossError("bpe model truncated");
    }
    return lines[pos++];
  };

  auto header = next_line();
  if (!header.ok()) return header.status();
  if (*header != "bpe_v1") {
    return InvalidArgumentError("bad bpe model header: " + *header);
  }
  auto lowercase_line = next_line();
  if (!lowercase_line.ok()) return lowercase_line.status();
  auto merge_count_line = next_line();
  if (!merge_count_line.ok()) return merge_count_line.status();

  BpeModel model;
  model.lowercase_ = (*lowercase_line == "1");
  size_t merge_count = std::strtoull(merge_count_line->c_str(), nullptr, 10);
  for (size_t i = 0; i < merge_count; ++i) {
    auto line = next_line();
    if (!line.ok()) return line.status();
    // Exactly one separator: no trained rule holds one, and a part that did
    // would make the line ambiguous.
    size_t sep = line->find(kRankSep);
    if (sep == std::string::npos ||
        line->find(kRankSep, sep + 1) != std::string::npos) {
      return DataLossError("bad merge rule line: " + *line);
    }
    model.merges_.push_back(
        MergeRule{line->substr(0, sep), line->substr(sep + 1)});
  }
  auto vocab_count_line = next_line();
  if (!vocab_count_line.ok()) return vocab_count_line.status();
  size_t vocab_count = std::strtoull(vocab_count_line->c_str(), nullptr, 10);
  if (vocab_count < 4) return DataLossError("vocab too small");
  for (size_t i = 4; i < vocab_count; ++i) {
    auto line = next_line();
    if (!line.ok()) return line.status();
    model.vocab_.AddToken(*line);
  }
  if (model.vocab_.size() != vocab_count) {
    return DataLossError("bpe vocabulary declares " +
                         std::to_string(vocab_count) + " tokens but holds " +
                         std::to_string(model.vocab_.size()) +
                         " distinct ones");
  }
  GOALEX_RETURN_IF_ERROR(model.Compile());
  return model;
}

}  // namespace goalex::bpe
