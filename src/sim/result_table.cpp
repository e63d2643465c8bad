#include "sim/result_table.hpp"

#include <sstream>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace braidio::sim {

ResultTable::ResultTable(const Scenario& scenario, std::uint64_t master_seed)
    : name_(scenario.name()),
      seed_(master_seed),
      axes_(scenario.axes()),
      columns_(scenario.value_columns()) {}

const RunRecord& ResultTable::record(std::size_t row) const {
  BRAIDIO_REQUIRE(row < records_.size(), "row", row);
  return records_[row];
}

const std::string& ResultTable::axis_label(std::size_t row,
                                           std::size_t axis) const {
  BRAIDIO_REQUIRE(axis < axes_.size(), "axis", axis);
  // Recover the coordinate along `axis` from the row-major flat index.
  std::size_t stride = 1;
  for (std::size_t a = axes_.size(); a-- > axis + 1;) {
    stride *= axes_[a].size();
  }
  BRAIDIO_REQUIRE(row < records_.size(), "row", row);
  const std::size_t coord = (row / stride) % axes_[axis].size();
  return axes_[axis].labels[coord];
}

util::TablePrinter ResultTable::to_printer() const {
  std::vector<std::string> headers;
  for (const auto& axis : axes_) headers.push_back(axis.name);
  for (const auto& col : columns_) headers.push_back(col);
  util::TablePrinter table(std::move(headers));
  for (std::size_t r = 0; r < records_.size(); ++r) {
    std::vector<std::string> row;
    row.reserve(axes_.size() + columns_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      row.push_back(axis_label(r, a));
    }
    for (const auto& cell : records_[r].cells) row.push_back(cell);
    table.add_row(std::move(row));
  }
  return table;
}

std::string ResultTable::to_csv() const {
  std::vector<std::string> headers;
  for (const auto& axis : axes_) headers.push_back(axis.name);
  for (const auto& col : columns_) headers.push_back(col);
  util::CsvWriter csv(std::move(headers));
  for (std::size_t r = 0; r < records_.size(); ++r) {
    std::vector<std::string> row;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      row.push_back(axis_label(r, a));
    }
    for (const auto& cell : records_[r].cells) row.push_back(cell);
    csv.add_row(row);
  }
  return csv.to_string();
}

std::string ResultTable::to_json() const {
  util::json::Writer w;
  write_json(w);
  return w.str();
}

void ResultTable::write_json(util::json::Writer& w) const {
  w.begin_object().key("scenario").value(name_).key("seed").value(seed_);
  w.key("axes").begin_array();
  for (const auto& axis : axes_) w.value(axis.name);
  w.end_array().key("rows").begin_array();
  for (std::size_t r = 0; r < records_.size(); ++r) {
    w.begin_object();
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      w.key(axes_[a].name).value(axis_label(r, a));
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      w.key(columns_[c]).value(records_[r].cells[c]);
    }
    w.end_object();
  }
  w.end_array().end_object();
}

std::string ResultTable::to_json_with_meta() const {
  util::json::Writer w;
  w.begin_object().key("meta").begin_object();
  w.key("scenario").value(name_).key("seed").value(seed_);
  w.key("points").value(records_.size()).key("threads").value(threads_used_);
  w.key("wall_seconds").value(total_wall_seconds_);
  w.key("obs_compiled").value(BRAIDIO_OBS_COMPILED != 0);
  w.key("trace_enabled").value(obs::tracing());
  // Truncated traces must be self-announcing: surface the tracer's total
  // and per-lane drop counters next to the run metadata so a consumer of
  // an exported trace can tell how much of it the rings overwrote.
  const auto trace = obs::Tracer::instance().snapshot();
  w.key("trace").begin_object();
  w.key("recorded").value(trace.total_recorded());
  w.key("dropped").value(trace.total_dropped()).key("lanes").begin_array();
  for (const auto& lane : trace.lanes) {
    w.begin_object().key("lane").value(lane.lane);
    w.key("recorded").value(lane.recorded).key("dropped").value(lane.dropped);
    w.end_object();
  }
  w.end_array().end_object();
  w.key("energy_attribution_joules").value(energy_profile_.total_joules());
  w.end_object().key("metrics");
  if (metrics_registry_.empty()) {
    w.null();
  } else {
    metrics_registry_.write_json(w);
  }
  write_json(w.key("data"));
  w.end_object();
  return w.str();
}

util::TablePrinter ResultTable::pivot(std::size_t row_axis,
                                      std::size_t col_axis,
                                      std::size_t value_col) const {
  BRAIDIO_REQUIRE(row_axis < axes_.size() && col_axis < axes_.size() &&
                      row_axis != col_axis,
                  "row_axis", row_axis, "col_axis", col_axis);
  BRAIDIO_REQUIRE(value_col < columns_.size(), "value_col", value_col);
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    BRAIDIO_REQUIRE(a == row_axis || a == col_axis || axes_[a].size() == 1,
                    "axis", a, "size", axes_[a].size());
  }
  const Axis& rows = axes_[row_axis];
  const Axis& cols = axes_[col_axis];

  std::vector<std::string> headers{rows.name + " \\ " + cols.name};
  for (const auto& label : cols.labels) headers.push_back(label);
  util::TablePrinter table(std::move(headers));

  // Strides of the two varying axes in the row-major flat index.
  auto stride_of = [&](std::size_t axis) {
    std::size_t stride = 1;
    for (std::size_t a = axes_.size(); a-- > axis + 1;) {
      stride *= axes_[a].size();
    }
    return stride;
  };
  const std::size_t row_stride = stride_of(row_axis);
  const std::size_t col_stride = stride_of(col_axis);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> out{rows.labels[r]};
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const std::size_t flat = r * row_stride + c * col_stride;
      out.push_back(record(flat).cells[value_col]);
    }
    table.add_row(std::move(out));
  }
  return table;
}

std::string ResultTable::metrics_summary() const {
  std::ostringstream os;
  os << records_.size() << " points on " << threads_used_ << " thread"
     << (threads_used_ == 1 ? "" : "s") << " in "
     << util::format_fixed(total_wall_seconds_ * 1e3, 1) << " ms ("
     << (total_wall_seconds_ > 0.0
             ? util::format_engineering(
                   static_cast<double>(records_.size()) /
                       total_wall_seconds_,
                   3)
             : std::string("inf"))
     << " evals/s)";
  return os.str();
}

}  // namespace braidio::sim
