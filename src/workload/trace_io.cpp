#include "workload/trace_io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"

namespace cosched {

namespace {

constexpr const char* kHeader =
    "job_id,user_id,arrival_sec,num_maps,num_reduces,input_bytes,sir,"
    "map_durations_sec,reduce_durations_sec";

std::string join_durations(const std::vector<Duration>& ds) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i > 0) os << ';';
    os << ds[i].sec();
  }
  return os.str();
}

/// One trace line's fields, parsed strictly: a malformed value fails with
/// a CheckFailure naming the line and the field.
class LineParser {
 public:
  explicit LineParser(std::size_t line_no) : line_no_(line_no) {}

  std::int64_t int64(const std::string& s, const char* field) const {
    std::int64_t v = 0;
    COSCHED_CHECK_MSG(
        parse_int64(s.c_str(), std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::max(), &v),
        where(field) << "expected an integer, got '" << s << "'");
    return v;
  }

  std::int32_t int32(const std::string& s, const char* field) const {
    std::int32_t v = 0;
    COSCHED_CHECK_MSG(
        parse_int32(s.c_str(), std::numeric_limits<std::int32_t>::min(),
                    std::numeric_limits<std::int32_t>::max(), &v),
        where(field) << "expected a 32-bit integer, got '" << s << "'");
    return v;
  }

  double finite(const std::string& s, const char* field) const {
    double v = 0.0;
    COSCHED_CHECK_MSG(
        parse_double(s.c_str(), std::numeric_limits<double>::lowest(),
                     std::numeric_limits<double>::max(), &v),
        where(field) << "expected a finite number, got '" << s << "'");
    return v;
  }

  std::vector<Duration> durations(const std::string& s,
                                  const char* field) const {
    std::vector<Duration> out;
    if (s.empty()) return out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ';')) {
      COSCHED_CHECK_MSG(!item.empty(), where(field) << "empty duration");
      out.push_back(Duration::seconds(finite(item, field)));
    }
    return out;
  }

 private:
  std::string where(const char* field) const {
    return "trace line " + std::to_string(line_no_) + ", field " + field +
           ": ";
  }

  std::size_t line_no_;
};

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream is(line);
  std::string field;
  while (std::getline(is, field, ',')) fields.push_back(field);
  return fields;
}

}  // namespace

void write_trace(std::ostream& os, const std::vector<JobSpec>& jobs) {
  os << kHeader << "\n";
  os << std::setprecision(17);
  for (const JobSpec& j : jobs) {
    j.validate();
    os << j.id.value() << ',' << j.user.value() << ',' << j.arrival.sec()
       << ',' << j.num_maps << ',' << j.num_reduces << ','
       << j.input_size.in_bytes() << ',' << j.sir << ','
       << join_durations(j.map_durations) << ','
       << join_durations(j.reduce_durations) << "\n";
  }
  COSCHED_CHECK_MSG(os.good(), "trace write failed");
}

std::vector<JobSpec> read_trace(std::istream& is) {
  std::string line;
  COSCHED_CHECK_MSG(std::getline(is, line), "empty trace");
  COSCHED_CHECK_MSG(line == kHeader, "unrecognized trace header: " << line);
  std::vector<JobSpec> jobs;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    // A trailing duration field may legitimately be empty (map-only jobs);
    // split_csv drops a trailing empty field, so re-add it.
    std::vector<std::string> f = split_csv(line);
    if (f.size() == 8) f.push_back("");
    COSCHED_CHECK_MSG(f.size() == 9,
                      "trace line " << line_no << ": expected 9 fields, got "
                                    << f.size());
    const LineParser p(line_no);
    JobSpec j;
    j.id = JobId{p.int64(f[0], "job_id")};
    j.user = UserId{p.int64(f[1], "user_id")};
    j.arrival = SimTime::seconds(p.finite(f[2], "arrival_sec"));
    j.num_maps = p.int32(f[3], "num_maps");
    j.num_reduces = p.int32(f[4], "num_reduces");
    j.input_size = DataSize::bytes(p.int64(f[5], "input_bytes"));
    j.sir = p.finite(f[6], "sir");
    j.map_durations = p.durations(f[7], "map_durations_sec");
    j.reduce_durations = p.durations(f[8], "reduce_durations_sec");
    j.validate();
    jobs.push_back(std::move(j));
  }
  return jobs;
}

void write_trace_file(const std::string& path,
                      const std::vector<JobSpec>& jobs) {
  std::ofstream os(path);
  COSCHED_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  write_trace(os, jobs);
}

std::vector<JobSpec> read_trace_file(const std::string& path) {
  std::ifstream is(path);
  COSCHED_CHECK_MSG(is.is_open(), "cannot open " << path);
  return read_trace(is);
}

}  // namespace cosched
