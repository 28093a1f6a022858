#ifndef AIRINDEX_SCHEMES_SIGNATURE_H_
#define AIRINDEX_SCHEMES_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/filter.h"

namespace airindex {

/// Parameters of the superimposed-coding signature generator.
struct SignatureParams {
  /// Bits set per attribute value (the classic "weight" parameter).
  int bits_per_attribute = 8;
  /// Width of *group* signatures (integrated / multi-level schemes), in
  /// bytes. A group signature superimposes every member record's fields,
  /// so it must be wider than a record signature or it saturates; 0 means
  /// auto: signature_bytes * max(1, group_size / 4).
  Bytes group_signature_bytes = 0;
};

/// Generates record and query signatures.
///
/// A record signature superimposes (ORs) the bit strings of the key and
/// every attribute, each attribute hashing to `bits_per_attribute` bit
/// positions of a (signature_bytes * 8)-bit string — exactly the paper's
/// "hashing each field of a record into a random bit string and then
/// superimposing together all the bit strings" (Section 2.3).
///
/// A query on the primary key contributes only the key's bit string; a
/// record *matches* when its signature covers every query bit. A match
/// whose record does not actually carry the key is a false drop.
class SignatureGenerator {
 public:
  /// Generator over (signature_bytes * 8)-bit strings.
  SignatureGenerator(Bytes signature_bytes, SignatureParams params);

  /// Convenience: uses geometry.signature_bytes.
  SignatureGenerator(const BucketGeometry& geometry, SignatureParams params);

  /// Width of the generated signatures in bytes.
  Bytes signature_bytes() const { return signature_bytes_; }

  /// Number of 64-bit words per signature.
  int words() const { return words_; }

  /// Full record signature (key + all attributes superimposed).
  std::vector<std::uint64_t> RecordSignature(const Record& record) const;

  /// Query signature for a primary-key lookup.
  std::vector<std::uint64_t> QuerySignature(std::string_view key) const;

  /// True when `record_sig` covers every bit of `query_sig`.
  static bool Matches(const std::uint64_t* record_sig,
                      const std::uint64_t* query_sig, int words);

 private:
  void SuperimposeField(std::string_view value,
                        std::vector<std::uint64_t>* sig) const;

  Bytes signature_bytes_;
  int words_;
  int bits_;
  SignatureParams params_;
};

/// The group-signature width used by the integrated and multi-level
/// schemes: params.group_signature_bytes, or the auto rule when 0.
Bytes ResolveGroupSignatureBytes(const BucketGeometry& geometry,
                                 const SignatureParams& params,
                                 int group_size);

/// Simple signature indexing (Lee & Lee; paper Section 2.3).
///
/// The cycle alternates a signature bucket (It bytes) and the data bucket
/// it abstracts (Dt bytes). A client sifts through every signature
/// bucket, dozing over the data bucket unless the signature matches; a
/// matching signature triggers a download, which is either the requested
/// record or a false drop.
class SignatureIndexing : public BroadcastScheme {
 public:
  static Result<SignatureIndexing> Build(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params = SignatureParams());

  /// Reattaches a channel inflated from a program arena. The bit-sliced
  /// signature file is recovered from the channel's signature buckets
  /// (each carries its record's full signature), so no rehashing runs.
  /// Rejects the same parameters Build rejects.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<SignatureIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params, Channel channel,
      std::shared_ptr<const ProgramArena> arena);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "signature indexing"; }

  /// Closed-form protocol walk over the bit-sliced signature file
  /// instead of bucket-by-bucket simulation: k query bits × ⌈range/64⌉
  /// words, k the query signature's set bits.
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Bucket-by-bucket reference implementation (property tests).
  AccessResult AccessReference(std::string_view key, Bytes tune_in) const;

  /// Attribute filtering — the capability signatures exist for: collect
  /// every record whose attributes carry `value`, sifting one full cycle
  /// of signatures and downloading only the matches (plus false drops).
  /// B+-tree air indexes cannot serve such queries at all; the flat
  /// baseline must listen to the entire cycle.
  FilterResult Filter(std::string_view value, Bytes tune_in) const;

  /// Measured per-record false-drop probability for key queries: the
  /// fraction of (query key, other record) pairs that match. Computed by
  /// sampling; feeds the analytical model.
  double MeasureFalseDropRate(int sample_queries, std::uint64_t seed) const;

  const SignatureGenerator& generator() const { return generator_; }

 private:
  SignatureIndexing(std::shared_ptr<const Dataset> dataset,
                    SignatureGenerator generator, Channel channel,
                    std::vector<std::uint64_t> slices,
                    std::shared_ptr<const ProgramArena> arena = nullptr);

  /// Offsets into slices_ of the rows of the query signature's set bits.
  std::vector<std::size_t> QueryRows(std::string_view key) const;

  /// The sift kernel: calls visit(block, mask) for each 64-record block
  /// of the circular key-order range [first, first + count), in circular
  /// order, where bit i of `mask` is set when record 64·block + i lies in
  /// the range and its signature covers the query (its bit is set in
  /// every row of `rows`). Blocks whose mask is 0 are skipped.
  template <typename Visit>
  void Sift(const std::vector<std::size_t>& rows, int first, int count,
            Visit&& visit) const;

  /// Records of the circular range [first, first + count) that match.
  int CountSifted(const std::vector<std::size_t>& rows, int first,
                  int count) const;

  /// True when record `position` matches: one bit per query row.
  bool RecordMatches(const std::vector<std::size_t>& rows,
                     int position) const;

  std::shared_ptr<const Dataset> dataset_;
  SignatureGenerator generator_;
  Channel channel_;
  /// The signature file bit-sliced: one row of ⌈N/64⌉ words per signature
  /// bit (signature_bytes·8 rows); bit r of row b is bit b of record r's
  /// signature, records in key order.
  std::vector<std::uint64_t> slices_;
  /// Words per slice row: ⌈N/64⌉.
  std::size_t blocks_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_SIGNATURE_H_
