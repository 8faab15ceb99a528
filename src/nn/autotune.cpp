#include "nn/autotune.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cpu_features.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace scnn::nn {

std::string TuneFile::to_json() const {
  using obs::detail::json_escape;
  std::string out = "{\n";
  out += "  \"cpu_signature\": \"" + json_escape(cpu_signature) + "\",\n";
  out += "  \"git_sha\": \"" + json_escape(git_sha) + "\",\n";
  out += "  \"best_backend\": \"" + json_escape(best_backend) + "\",\n";
  out += "  \"best_tile\": " + std::to_string(best_tile) + ",\n";
  out += "  \"best_threads\": " + std::to_string(best_threads) + ",\n";
  out += "  \"entries\": [";
  for (std::size_t j = 0; j < entries.size(); ++j) {
    const TuneEntry& e = entries[j];
    out += (j == 0 ? "\n" : ",\n");
    out += "    {\"backend\": \"" + json_escape(e.backend) +
           "\", \"tile\": " + std::to_string(e.tile) +
           ", \"threads\": " + std::to_string(e.threads) +
           ", \"imgs_per_s\": " + obs::detail::json_number(e.imgs_per_s) + "}";
  }
  out += entries.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

TuneFile TuneFile::from_json(std::string_view json) {
  TuneFile tf;
  obs::json::Reader in(json, "TuneFile::from_json");
  in.object([&](const std::string& key) {
    if (key == "cpu_signature") in.read(tf.cpu_signature);
    else if (key == "git_sha") in.read(tf.git_sha);
    else if (key == "best_backend") in.read(tf.best_backend);
    else if (key == "best_tile") in.read(tf.best_tile);
    else if (key == "best_threads") in.read(tf.best_threads);
    else if (key == "entries") {
      tf.entries.clear();
      in.array([&] {
        TuneEntry& e = tf.entries.emplace_back();
        in.object([&](const std::string& field) {
          if (field == "backend") in.read(e.backend);
          else if (field == "tile") in.read(e.tile);
          else if (field == "threads") in.read(e.threads);
          else if (field == "imgs_per_s") in.read(e.imgs_per_s);
          else in.unknown_key();
        });
      });
    } else {
      in.unknown_key();
    }
  });
  in.finish();
  return tf;
}

TuneFile load_tune_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read tune file '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return TuneFile::from_json(ss.str());
}

void save_tune_file(const TuneFile& tune, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write tune file '" + path + "'");
  f << tune.to_json();
  if (!f) throw std::runtime_error("failed writing tune file '" + path + "'");
}

namespace {

std::optional<TuneFile>& tune_slot() {
  static std::optional<TuneFile> slot;
  return slot;
}

bool& env_checked() {
  static bool checked = false;
  return checked;
}

}  // namespace

const TuneFile* active_tune() {
  if (!env_checked()) {
    env_checked() = true;
    if (const char* env = std::getenv("SCNN_TUNE_FILE"); env && *env)
      set_active_tune(load_tune_file(env));
  }
  return tune_slot() ? &*tune_slot() : nullptr;
}

void set_active_tune(std::optional<TuneFile> tune) {
  env_checked() = true;  // an explicit install outranks the env default
  if (tune) {
    const std::string here = common::cpu_features_summary();
    if (tune->cpu_signature != here)
      throw std::invalid_argument(
          "tune file was recorded on a CPU with features '" +
          tune->cpu_signature + "' but this machine reports '" + here +
          "' — a tile/kernel choice tuned for another CPU is misinformation; "
          "re-run `scnn_cli tune` here");
  }
  tune_slot() = std::move(tune);
}

}  // namespace scnn::nn
