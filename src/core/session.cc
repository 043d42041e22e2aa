#include "core/session.h"

namespace dvms {

Session::Session(Dvms* engine) : Session(engine, Options()) {}

Session::Session(Dvms* engine, Options options)
    : engine_(engine),
      options_(options),
      cancel_(options.cancel_flag != nullptr
                  ? options.cancel_flag
                  : std::make_shared<std::atomic<bool>>(false)) {}

Session::~Session() { Close(); }

Result<Table> Session::Query(const std::string& select_sql) {
  if (closed_) return Status::InvalidArgument("session is closed");
  // The session's own envelope: engine deadline/budget unless the session
  // overrides them, plus the session-private cancel flag — so cancelling
  // one session can never abort another's query.
  const GovernorConfig& engine = engine_->governor_config_;
  Dvms::ReadEnvelope envelope{
      cancel_,
      options_.deadline_ms >= 0 ? options_.deadline_ms : engine.deadline_ms,
      options_.mem_budget >= 0 ? options_.mem_budget : engine.mem_budget};
  return engine_->SnapshotRead("session.query", select_sql, pinned_,
                               envelope, &last_read_epoch_);
}

Status Session::Pin() {
  if (closed_) return Status::InvalidArgument("session is closed");
  SnapshotPtr latest = engine_->snapshots_.Acquire();
  if (latest == nullptr) {
    return Status::Internal("no snapshot epoch published yet");
  }
  if (pinned_ == nullptr) engine_->snapshots_.NotePin();
  pinned_ = std::move(latest);
  return Status::OK();
}

void Session::Unpin() {
  if (pinned_ == nullptr) return;
  pinned_.reset();
  engine_->snapshots_.NoteUnpin();
}

Result<Table> Session::PollEvents(const std::string& relation) {
  if (closed_) return Status::InvalidArgument("session is closed");
  SnapshotPtr view = pinned_ != nullptr ? pinned_ : engine_->snapshots_.Acquire();
  if (view == nullptr) {
    return Status::Internal("no snapshot epoch published yet");
  }
  DVMS_ASSIGN_OR_RETURN(TablePtr table,
                        view->Read(relation, VersionRef::Current()));
  last_read_epoch_ = view->epoch();
  size_t& cursor = event_cursors_[IdentKey(relation)];
  const std::vector<Row>& rows = table->rows();
  Table out(table->schema());
  if (cursor > rows.size()) {
    // The stream rewound (undo / rollback published a shorter state):
    // resynchronize at the new end rather than re-deliver old rows.
    cursor = rows.size();
    return out;
  }
  for (size_t i = cursor; i < rows.size(); ++i) out.AppendUnchecked(rows[i]);
  cursor = rows.size();
  return out;
}

void Session::Close() {
  if (closed_) return;
  Unpin();
  closed_ = true;
}

}  // namespace dvms
