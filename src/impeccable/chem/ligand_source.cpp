#include "impeccable/chem/ligand_source.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "impeccable/chem/protonation.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/thread_pool.hpp"

namespace impeccable::chem {

namespace {

/// body(i) for i in [0, n): across `pool` when given, else serially. Either
/// way the exception that propagates is the lowest failing index's.
template <typename Body>
void for_each_index(common::ThreadPool* pool, std::size_t n, Body&& body) {
  if (pool) {
    pool->parallel_for(0, n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Size `out` to n images and reserve each buffer for one depiction, on the
/// calling thread, so workers that fill them never allocate long-lived
/// memory in their own malloc arenas.
void reserve_images(std::vector<Image>& out, std::size_t n,
                    const DepictionOptions& d) {
  const std::size_t pixels =
      static_cast<std::size_t>(d.channels) * d.height * d.width;
  out.resize(n);
  for (Image& img : out) img.data.reserve(pixels);
}

}  // namespace

Molecule LigandSource::prepare(std::string_view smiles) const {
  Molecule mol = parse_smiles(smiles);
  if (opts_.protonate_ph > 0.0)
    mol = protonate_for_ph(mol, opts_.protonate_ph);
  return mol;
}

Image LigandSource::image(std::size_t i) const {
  Image img;
  image_into(i, img);
  return img;
}

void LigandSource::images(std::size_t begin, std::size_t end,
                          std::vector<Image>& out,
                          common::ThreadPool* pool) const {
  if (begin > end || end > size())
    throw std::out_of_range("LigandSource::images: bad window");
  reserve_images(out, end - begin, opts_.depiction);
  for_each_index(pool, out.size(),
                 [&](std::size_t k) { image_into(begin + k, out[k]); });
}

void LigandSource::release(std::size_t, std::size_t) const {}

// ---------------------------------------------------------------------------
// InMemorySource

InMemorySource::InMemorySource(CompoundLibrary library, SourceOptions opts,
                               common::ThreadPool* pool)
    : LigandSource(opts), library_(std::move(library)) {
  mols_.resize(library_.size());
  reserve_images(images_, library_.size(), opts_.depiction);
  for_each_index(pool, library_.size(), [&](std::size_t i) {
    mols_[i] = prepare(library_.entries[i].smiles);
    depict_into(mols_[i], opts_.depiction, images_[i]);
  });
}

std::string InMemorySource::id(std::size_t i) const {
  return library_.entries.at(i).id;
}

std::string InMemorySource::smiles(std::size_t i) const {
  return library_.entries.at(i).smiles;
}

Molecule InMemorySource::molecule(std::size_t i) const { return mols_.at(i); }

void InMemorySource::image_into(std::size_t i, Image& out) const {
  out = images_.at(i);
}

// ---------------------------------------------------------------------------
// MmapSource

MmapSource::MmapSource(LigandStore store, SourceOptions opts)
    : LigandSource(opts), store_(std::move(store)) {}

std::string MmapSource::id(std::size_t i) const {
  return std::string(store_.id(i));
}

std::string MmapSource::smiles(std::size_t i) const {
  return std::string(store_.smiles(i));
}

Molecule MmapSource::molecule(std::size_t i) const {
  return prepare(store_.smiles(i));
}

void MmapSource::image_into(std::size_t i, Image& out) const {
  depict_into(molecule(i), opts_.depiction, out);
}

void MmapSource::release(std::size_t begin, std::size_t end) const {
  store_.release(begin, end);
}

// ---------------------------------------------------------------------------

StoreStats spill_generated_library(const std::string& name, std::size_t count,
                                   std::uint64_t seed,
                                   const std::string& directory,
                                   const GeneratorOptions& opts,
                                   std::size_t records_per_shard) {
  StoreWriterOptions wopts;
  wopts.records_per_shard = records_per_shard;
  wopts.dedup = false;
  LigandStoreWriter writer(directory, wopts);
  for (std::size_t i = 0; i < count; ++i) {
    const Molecule mol = generate_compound(seed, i, opts);
    char id[80];
    std::snprintf(id, sizeof id, "%s-%06zu", name.c_str(), i);
    writer.append(id, write_smiles(mol));
  }
  writer.finish();
  return writer.stats();
}

}  // namespace impeccable::chem
