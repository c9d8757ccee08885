#include "waveform/wvx_verify.h"

#include "waveform/indexed_waveform.h"

namespace hgdb::waveform {

VerifyResult verify_index(const std::string& path) {
  VerifyResult result;
  try {
    // A small cache: verification touches every block exactly once, so
    // residency would only waste memory.
    IndexedWaveform waveform(path, /*cache_blocks=*/8);
    result.checksummed = waveform.has_block_checksums();
    result.version = waveform.version();
    result.codec = waveform.codec_name();
    result.signals = waveform.signal_count();
    result.blocks = waveform.total_blocks();
    result.aliases = waveform.alias_count();
    if (waveform.sharded()) result.shards = waveform.shard_count();
    if (auto fault = waveform.verify_blocks()) {
      result.fault = fault->fault;
      result.error = fault->message;
      result.signal = fault->signal;
      result.block_index = fault->block_index;
      result.file_offset = fault->file_offset;
      return result;
    }
    result.ok = true;
  } catch (const WvxError& error) {
    result.fault = error.fault();
    result.error = error.what();
  } catch (const std::exception& error) {
    result.fault = WvxFault::kIo;
    result.error = error.what();
  }
  return result;
}

std::string describe(const VerifyResult& result, const std::string& path) {
  if (result.ok) {
    std::string text = path + ": OK — format v" +
                       std::to_string(result.version) + ", " + result.codec +
                       " codec, " + std::to_string(result.signals) +
                       " signal(s), " + std::to_string(result.blocks) +
                       " block(s)";
    if (result.shards != 0) {
      text += ", " + std::to_string(result.shards) + " shard(s)";
    }
    if (result.aliases != 0) {
      text += ", " + std::to_string(result.aliases) + " alias(es) deduped";
    }
    text += result.checksummed ? ", all checksums verified"
                               : " (no checksums; legacy index)";
    return text;
  }
  std::string text = path + ": CORRUPT [" + to_string(result.fault) + "] — " +
                     result.error;
  if (result.version != 0) {
    text += "\nformat v" + std::to_string(result.version) +
            (result.codec.empty() ? "" : ", " + result.codec + " codec");
  }
  if (!result.signal.empty()) {
    text += "\nfirst corrupt block: signal '" + result.signal + "', block " +
            std::to_string(result.block_index) + ", file offset " +
            std::to_string(result.file_offset);
  }
  return text;
}

}  // namespace hgdb::waveform
