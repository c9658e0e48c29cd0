#include "impeccable/core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace impeccable::core {

namespace {

constexpr const char* kHeader =
    "id,smiles,surrogate_score,docked,dock_score,cg_done,cg_energy,cg_error,"
    "fg_energies";

/// Streams a double as the shortest text that reads back to the same bits
/// (std::to_chars); the stream default keeps only 6 significant digits.
struct Exact {
  double v;
};

std::ostream& operator<<(std::ostream& os, Exact e) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, e.v);
  return os.write(buf, r.ptr - buf);
}

/// Parse a whole field written through Exact; anything else throws. Unlike
/// std::stod this accepts subnormals, which Exact can produce.
double parse_exact(const std::string& field) {
  double v = 0.0;
  const char* end = field.data() + field.size();
  const auto r = std::from_chars(field.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end)
    throw std::invalid_argument("not a number: " + field);
  return v;
}

/// Replace `path` with `data` crash-safely: write `path + ".tmp"`, fsync it,
/// rename it over `path`, then fsync the directory so the rename is durable.
/// On any failure the temp file is removed, `path` keeps its previous
/// content, and a std::runtime_error names `who` and the errno text.
void write_atomically(const std::string& path, const std::string& data,
                      const char* who) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const char* what, int fd) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string(who) + ": " + what + " " + path +
                             ": " + std::strerror(err));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot open", -1);
  for (std::size_t done = 0; done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("cannot write", fd);
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("cannot sync", fd);
  if (::close(fd) != 0) fail("cannot close", -1);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot rename onto", -1);
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0 || ::fsync(dfd) != 0) fail("cannot sync the directory of", dfd);
  ::close(dfd);
}

}  // namespace

void write_checkpoint(const CampaignReport& report, const std::string& path) {
  std::ostringstream f;
  f << kHeader << "\n";
  for (const auto& [id, rec] : report.compounds) {
    f << rec.id << ',' << rec.smiles << ',' << Exact{rec.surrogate_score}
      << ',' << (rec.docked ? 1 : 0) << ',' << Exact{rec.dock_score}
      << ',' << (rec.cg_done ? 1 : 0) << ',' << Exact{rec.cg_energy}
      << ',' << Exact{rec.cg_error} << ',';
    for (std::size_t k = 0; k < rec.fg_energies.size(); ++k) {
      if (k) f << ';';
      f << Exact{rec.fg_energies[k]};
    }
    f << "\n";
  }
  write_atomically(path, f.str(), "write_checkpoint");
}

std::map<std::string, CompoundRecord> read_checkpoint(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_checkpoint: cannot open " + path);
  std::string line;
  if (!std::getline(f, line) || line != kHeader)
    throw std::runtime_error("read_checkpoint: bad header in " + path);

  std::map<std::string, CompoundRecord> out;
  std::size_t line_no = 1;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    if (fields.size() < 8)
      throw std::runtime_error("read_checkpoint: short row at line " +
                               std::to_string(line_no));
    try {
      CompoundRecord rec;
      rec.id = fields[0];
      rec.smiles = fields[1];
      rec.surrogate_score = parse_exact(fields[2]);
      rec.docked = fields[3] == "1";
      rec.dock_score = parse_exact(fields[4]);
      rec.cg_done = fields[5] == "1";
      rec.cg_energy = parse_exact(fields[6]);
      rec.cg_error = parse_exact(fields[7]);
      if (fields.size() > 8 && !fields[8].empty()) {
        std::stringstream fg(fields[8]);
        std::string e;
        while (std::getline(fg, e, ';'))
          rec.fg_energies.push_back(parse_exact(e));
      }
      out.emplace(rec.id, std::move(rec));
    } catch (const std::exception&) {
      throw std::runtime_error("read_checkpoint: malformed row at line " +
                               std::to_string(line_no));
    }
  }
  return out;
}

void write_scores_csv(const std::vector<std::pair<std::string, double>>& scores,
                      const std::map<std::string, std::string>& id_to_smiles,
                      const std::string& path) {
  std::ostringstream f;
  f << "id,smiles,score\n";
  for (const auto& [id, score] : scores) {
    const auto it = id_to_smiles.find(id);
    f << id << ',' << (it == id_to_smiles.end() ? "" : it->second) << ','
      << Exact{score} << "\n";
  }
  write_atomically(path, f.str(), "write_scores_csv");
}

}  // namespace impeccable::core
