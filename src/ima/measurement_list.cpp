#include "ima/measurement_list.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/sha256.h"
#include "pki/tlv.h"

namespace vnfsgx::ima {

namespace {
enum : std::uint8_t {
  kTagEntry = 0x01,
  kTagPcr = 0x02,
  kTagTemplateHash = 0x03,
  kTagTemplateName = 0x04,
  kTagFileDigest = 0x05,
  kTagFilePath = 0x06,
};
}  // namespace

bool ImaEntry::is_violation() const {
  return std::all_of(file_digest.begin(), file_digest.end(),
                     [](std::uint8_t b) { return b == 0; });
}

Digest template_hash_for(const Digest& file_digest, const std::string& path) {
  // ima-ng template data: "sha256:" || digest || path
  Bytes data;
  append(data, std::string_view("sha256:"));
  append(data, file_digest);
  append(data, path);
  return crypto::Sha256::hash(data);
}

void MeasurementList::add_measurement(const Digest& file_digest,
                                      const std::string& path) {
  ImaEntry entry;
  entry.file_digest = file_digest;
  entry.file_path = path;
  entry.template_hash = template_hash_for(file_digest, path);
  entries_.push_back(std::move(entry));
}

void MeasurementList::add_violation(const std::string& path) {
  ImaEntry entry;
  entry.file_digest = Digest{};  // zeros
  entry.file_path = path;
  // The kernel stores 0xFF.. as the violation template hash input; what
  // matters for the verifier is that it cannot be reproduced from file
  // content. We hash a distinguished marker.
  Bytes data;
  append(data, std::string_view("violation:"));
  append(data, path);
  entry.template_hash = crypto::Sha256::hash(data);
  entries_.push_back(std::move(entry));
}

bool MeasurementList::has_violation() const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [](const ImaEntry& e) { return e.is_violation(); });
}

Digest MeasurementList::aggregate() const {
  Digest pcr{};  // PCR starts at zero
  for (const ImaEntry& entry : entries_) {
    crypto::Sha256 h;
    h.update(pcr);
    h.update(entry.template_hash);
    pcr = h.finish();
  }
  return pcr;
}

Bytes MeasurementList::encode() const {
  // One pass at the exact size: each entry's nested fields are written in
  // place after its header, with no per-entry child writer.
  const auto value_size = [](const ImaEntry& entry) {
    using W = pki::TlvWriter;
    return W::element_size(4) + W::element_size(entry.template_hash.size()) +
           W::element_size(entry.template_name.size()) +
           W::element_size(entry.file_digest.size()) +
           W::element_size(entry.file_path.size());
  };
  std::size_t total = 0;
  for (const ImaEntry& entry : entries_) {
    total += pki::TlvWriter::element_size(value_size(entry));
  }
  pki::TlvWriter w;
  w.reserve(total);
  for (const ImaEntry& entry : entries_) {
    w.add_header(kTagEntry, value_size(entry));
    w.add_u32(kTagPcr, entry.pcr);
    w.add_bytes(kTagTemplateHash, entry.template_hash);
    w.add_string(kTagTemplateName, entry.template_name);
    w.add_bytes(kTagFileDigest, entry.file_digest);
    w.add_string(kTagFilePath, entry.file_path);
  }
  return w.take();
}

MeasurementList MeasurementList::decode(ByteView data) {
  MeasurementList list;
  // Count the entries first, so the list is allocated once at its size.
  std::size_t count = 0;
  for (pki::TlvReader r(data); !r.done(); ++count) r.expect(kTagEntry);
  list.entries_.reserve(count);
  pki::TlvReader r(data);
  while (!r.done()) {
    pki::TlvReader e(r.expect(kTagEntry));
    ImaEntry entry;
    entry.pcr = e.expect_u32(kTagPcr);
    entry.template_hash = e.expect_array<32>(kTagTemplateHash);
    entry.template_name = e.expect_string(kTagTemplateName);
    entry.file_digest = e.expect_array<32>(kTagFileDigest);
    entry.file_path = e.expect_string(kTagFilePath);
    if (!e.done()) throw ParseError("ima entry: trailing data");
    list.entries_.push_back(std::move(entry));
  }
  return list;
}

}  // namespace vnfsgx::ima
