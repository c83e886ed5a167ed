#include "xkms/xkmsd.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "common/wait.h"

namespace discsec {
namespace xkms {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cheap pre-parse operation classification: the admission decision (which
/// queue, which bound) must not cost a full XML parse on a request we may
/// be about to shed. The root element name appears in the first handful of
/// bytes of every legitimate request; anything unrecognized is queued at
/// the lowest priority and rejected properly by the worker's real parse.
XkmsdPriority ClassifyRequest(const std::string& request_xml) {
  std::string_view head(request_xml);
  head = head.substr(0, std::min<size_t>(head.size(), 256));
  if (head.find("ValidateRequest") != std::string_view::npos) {
    return XkmsdPriority::kValidate;
  }
  if (head.find("LocateRequest") != std::string_view::npos) {
    return XkmsdPriority::kLocate;
  }
  return XkmsdPriority::kMutate;
}

}  // namespace

const char* XkmsdPriorityName(XkmsdPriority priority) {
  switch (priority) {
    case XkmsdPriority::kValidate:
      return "validate";
    case XkmsdPriority::kLocate:
      return "locate";
    case XkmsdPriority::kMutate:
      return "mutate";
  }
  return "unknown";
}

// --- ShardedKeyStore ---

ShardedKeyStore::ShardedKeyStore(size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedKeyStore::Shard& ShardedKeyStore::ShardFor(
    const std::string& name) const {
  size_t index = std::hash<std::string>{}(name) % shards_.size();
  return *shards_[index];
}

Status ShardedKeyStore::Register(const KeyBinding& binding) {
  if (binding.name.empty()) {
    return Status::InvalidArgument("key binding needs a name");
  }
  if (binding.key.modulus.IsZero()) {
    return Status::InvalidArgument("key binding needs a key");
  }
  Shard& shard = ShardFor(binding.name);
  KeyBinding stored = binding;
  stored.status = KeyStatus::kValid;
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.bindings[binding.name] = std::move(stored);
  return Status::OK();
}

Status ShardedKeyStore::Revoke(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.bindings.find(name);
  if (it == shard.bindings.end()) {
    return Status::NotFound("no binding named '" + name + "'");
  }
  it->second.status = KeyStatus::kInvalid;
  return Status::OK();
}

Result<KeyBinding> ShardedKeyStore::Locate(const std::string& name) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.bindings.find(name);
  if (it == shard.bindings.end()) {
    return Status::NotFound("no binding named '" + name + "'");
  }
  return it->second;
}

KeyStatus ShardedKeyStore::Validate(const std::string& name,
                                    const crypto::RsaPublicKey& key) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.bindings.find(name);
  if (it == shard.bindings.end()) return KeyStatus::kIndeterminate;
  if (!(it->second.key == key)) return KeyStatus::kInvalid;
  return it->second.status;
}

size_t ShardedKeyStore::BindingCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bindings.size();
  }
  return total;
}

std::vector<KeyBinding> ShardedKeyStore::CopyAll() const {
  std::vector<KeyBinding> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, binding] : shard->bindings) {
      out.push_back(binding);
    }
  }
  return out;
}

// --- SnapshotStore ---

void SnapshotStore::Replace(std::vector<KeyBinding> bindings,
                            int64_t now_us) {
  std::map<std::string, KeyBinding> next;
  for (auto& binding : bindings) {
    std::string name = binding.name;
    next[std::move(name)] = std::move(binding);
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(next);
  refreshed_at_us_ = now_us;
}

void SnapshotStore::MarkInvalid(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) it->second.status = KeyStatus::kInvalid;
}

std::optional<KeyBinding> SnapshotStore::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

KeyStatus SnapshotStore::ForcedStatus(KeyStatus stored) {
  return stored == KeyStatus::kInvalid ? KeyStatus::kInvalid
                                       : KeyStatus::kIndeterminate;
}

int64_t SnapshotStore::refreshed_at_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refreshed_at_us_;
}

size_t SnapshotStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// --- Xkmsd ---

namespace {

/// The responder's counter handles, resolved once from the registry it was
/// built with. Each event increments exactly one of them, from workers and
/// submitters alike (Counter::Add is a relaxed atomic).
struct Counters {
  explicit Counters(obs::MetricsRegistry* metrics)
      : admitted(metrics->GetCounter("xkmsd.admitted")),
        served(metrics->GetCounter("xkmsd.served")),
        shed_queue_full(metrics->GetCounter("xkmsd.shed.queue_full")),
        shed_oversized(metrics->GetCounter("xkmsd.shed.oversized")),
        shed_malformed(metrics->GetCounter("xkmsd.shed.malformed")),
        shed_fault(metrics->GetCounter("xkmsd.shed.fault")),
        store_lookups(metrics->GetCounter("xkmsd.store_lookups")),
        degraded(metrics->GetCounter("xkmsd.degraded")),
        store_errors(metrics->GetCounter("xkmsd.store_errors")),
        queue_depth(metrics->GetCounter("xkmsd.queue_depth")) {}

  obs::Counter* admitted;
  obs::Counter* served;
  obs::Counter* shed_queue_full;
  obs::Counter* shed_oversized;
  obs::Counter* shed_malformed;
  obs::Counter* shed_fault;
  obs::Counter* store_lookups;
  obs::Counter* degraded;
  obs::Counter* store_errors;
  obs::Counter* queue_depth;  ///< gauge, Set under queue_mu
};

/// Shards in the authoritative store, and the successful mutations between
/// periodic snapshot refreshes (RefreshSnapshot() refreshes on demand).
constexpr size_t kStoreShards = 16;
constexpr uint64_t kSnapshotRefreshEvery = 64;

}  // namespace

struct Xkmsd::Core : std::enable_shared_from_this<Xkmsd::Core> {
  struct Item {
    std::string request;
    XkmsdPriority priority = XkmsdPriority::kMutate;
    int64_t enqueued_at_us = 0;
    Completion done;
  };

  explicit Core(XkmsdOptions opts)
      : options(std::move(opts)),
        store(kStoreShards),
        clock(options.clock ? options.clock
                            : std::function<int64_t()>(SteadyNowUs)),
        counters(options.metrics != nullptr ? options.metrics
                                            : &own_metrics) {
    if (options.metrics != nullptr) {
      queue_wait_hist = options.metrics->GetHistogram("xkmsd.queue_wait_us");
      serve_hist = options.metrics->GetHistogram("xkmsd.serve_us");
    }
  }

  XkmsdOptions options;
  ShardedKeyStore store;
  SnapshotStore snapshot;
  std::function<int64_t()> clock;
  obs::MetricsRegistry own_metrics;  ///< holds the counts when
                                     ///< options.metrics is null
  Counters counters;
  obs::Histogram* queue_wait_hist = nullptr;
  obs::Histogram* serve_hist = nullptr;

  std::mutex queue_mu;
  std::deque<Item> queues[kXkmsdPriorities];
  bool shutting_down = false;

  std::mutex pending_mu;
  std::condition_variable pending_cv;
  size_t pending = 0;  // admitted but not yet completed

  std::atomic<uint64_t> mutations{0};

  fault::FaultInjector* injector() {
    return fault::Effective(options.fault);
  }

  /// Requests queued across every priority; called under queue_mu.
  size_t QueuedLocked() const {
    size_t depth = 0;
    for (const auto& queue : queues) depth += queue.size();
    return depth;
  }

  void TrackPending(int delta) {
    std::lock_guard<std::mutex> lock(pending_mu);
    pending = static_cast<size_t>(static_cast<int64_t>(pending) + delta);
    if (pending == 0) pending_cv.notify_all();
  }

  void DrainPending() {
    std::unique_lock<std::mutex> lock(pending_mu);
    pending_cv.wait(lock, [this] { return pending == 0; });
  }

  /// Completes an admitted item and releases its pending slot. Sheds at
  /// the front door (never admitted) call `done` directly instead.
  void Complete(Item& item, Result<std::string> r) {
    item.done(std::move(r));
    TrackPending(-1);
  }

  /// Deeper backlog, longer hint: base * (1 + backlog/limit), where
  /// `backlog` is every queued request. The client's jitter decorrelates
  /// the fleet around it.
  int64_t RetryAfterHint(XkmsdPriority priority, size_t backlog) const {
    if (options.retry_after_base_us <= 0) return 0;
    size_t limit =
        std::max<size_t>(1, options.queue_limits[static_cast<size_t>(
                                priority)]);
    return options.retry_after_base_us *
           static_cast<int64_t>(1 + backlog / limit);
  }

  void Submit(std::string request_xml, Completion done);
  void ProcessOne();
  void Serve(Item& item);
  Result<std::string> ServeLocate(const xml::Element& root);
  Result<std::string> ServeValidate(const xml::Element& root);
  Result<std::string> ServeRegister(const xml::Element& root);
  Result<std::string> ServeRevoke(const xml::Element& root);
  void RefreshSnapshot();
  void AfterMutation();
};

void Xkmsd::Core::Submit(std::string request_xml, Completion done) {
  const XkmsdPriority priority = ClassifyRequest(request_xml);

  {
    std::unique_lock<std::mutex> lock(queue_mu);
    if (shutting_down) {
      lock.unlock();
      done(Status::Unavailable("xkmsd is shutting down")
               .WithContext("xkmsd admission"));
      return;
    }
  }

  // 1. Chaos at the front door. A kDelay here stalls the submitting
  // thread (an overwhelmed accept loop); kError sheds outright.
  Status chaos =
      injector()->Hit(fault::kXkmsdQueue, XkmsdPriorityName(priority));
  if (!chaos.ok()) {
    counters.shed_fault->Add();
    done(chaos.WithContext("xkmsd admission"));
    return;
  }

  // 2. Oversized payloads are rejected before the parser ever sees them —
  // the same limit the parser would enforce, but without paying for a
  // parse attempt on a 16 MiB bomb.
  if (request_xml.size() > options.parse.max_input) {
    counters.shed_oversized->Add();
    done(Status::ResourceExhausted(
             "XKMS request of " + std::to_string(request_xml.size()) +
             " bytes exceeds max_input " +
             std::to_string(options.parse.max_input))
             .WithContext("xkmsd admission"));
    return;
  }

  // 3. Queue-depth load shedding, with a retry-after hint sized to the
  // backlog so the fleet spreads its return instead of hammering.
  const int64_t now_us = clock();
  const size_t pi = static_cast<size_t>(priority);
  size_t depth = 0;
  size_t backlog = 0;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    depth = queues[pi].size();
    if (depth < options.queue_limits[pi]) {
      queues[pi].push_back(
          Item{std::move(request_xml), priority, now_us, std::move(done)});
      counters.queue_depth->Set(QueuedLocked());
      admitted = true;
    } else {
      backlog = QueuedLocked();
    }
  }
  if (!admitted) {
    counters.shed_queue_full->Add();
    done(Status::Unavailable("xkmsd overloaded: " +
                             std::string(XkmsdPriorityName(priority)) +
                             " queue at " + std::to_string(depth) + "/" +
                             std::to_string(options.queue_limits[pi]))
             .WithRetryAfter(RetryAfterHint(priority, backlog))
             .WithContext("xkmsd admission"));
    return;
  }

  counters.admitted->Add();
  TrackPending(+1);
  if (options.pool != nullptr) {
    auto self = shared_from_this();
    options.pool->Submit([self] { self->ProcessOne(); });
  } else {
    ProcessOne();
  }
}

void Xkmsd::Core::ProcessOne() {
  Item item;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    // Every enqueue submits exactly one ProcessOne after pushing its item,
    // so some queue is non-empty here: take from the most important one.
    size_t pi = 0;
    while (queues[pi].empty()) ++pi;
    item = std::move(queues[pi].front());
    queues[pi].pop_front();
    counters.queue_depth->Set(QueuedLocked());
  }

  const int64_t now_us = clock();
  if (queue_wait_hist != nullptr && now_us >= item.enqueued_at_us) {
    queue_wait_hist->Observe(
        static_cast<uint64_t>(now_us - item.enqueued_at_us));
  }
  Serve(item);
}

void Xkmsd::Core::Serve(Item& item) {
  obs::ScopedSpan span(options.tracer, "xkmsd.request");
  span.SetAttr("priority", XkmsdPriorityName(item.priority));
  obs::ScopedLatency latency(serve_hist);

  // The bounded parse happens here, in the worker, after admission but
  // before any signature or store work: a depth bomb or attribute bomb
  // costs one rejected parse, never a store lock.
  xml::ParseOptions parse_options = options.parse;
  parse_options.tracer = options.tracer;
  Result<xml::Document> doc = xml::Parse(item.request, parse_options);
  if (!doc.ok()) {
    counters.shed_malformed->Add();
    span.SetAttr("outcome", "malformed");
    Complete(item, doc.status().WithContext("xkmsd request"));
    return;
  }

  const xml::Element* root = doc.value().root();
  std::string op(root->LocalName());
  span.SetAttr("op", op);

  Result<std::string> response =
      op == "LocateRequest"     ? ServeLocate(*root)
      : op == "ValidateRequest" ? ServeValidate(*root)
      : op == "RegisterRequest" ? ServeRegister(*root)
      : op == "RevokeRequest"
          ? ServeRevoke(*root)
          : Result<std::string>(
                Status::Unsupported("XKMS operation: " + op)
                    .WithContext("xkmsd request"));
  if (response.ok()) {
    counters.served->Add();
    span.SetAttr("outcome", "served");
  } else {
    span.SetAttr("outcome", "error");
  }
  Complete(item, std::move(response));
}

Result<std::string> Xkmsd::Core::ServeLocate(const xml::Element& root) {
  const xml::Element* key_name = root.FirstChildElementByLocalName("KeyName");
  if (key_name == nullptr) {
    counters.shed_malformed->Add();
    return Status::ParseError("LocateRequest missing KeyName")
        .WithContext("xkmsd request");
  }
  const std::string name = key_name->TextContent();

  Status chaos = injector()->Hit(fault::kXkmsdStore, "locate " + name);
  if (!chaos.ok()) {
    // Authoritative store is broken. Graceful degradation: answer from
    // the stale snapshot, downgraded to Indeterminate-on-doubt — or admit
    // unavailability if the snapshot is broken/empty too.
    Status snap_chaos =
        injector()->Hit(fault::kXkmsdSnapshot, "locate " + name);
    if (snap_chaos.ok()) {
      std::optional<KeyBinding> stale = snapshot.Lookup(name);
      if (stale.has_value()) {
        stale->status = SnapshotStore::ForcedStatus(stale->status);
        counters.degraded->Add();
        auto response = MakeXkmsRoot("LocateResult");
        response->SetAttribute("ResultMajor", "Success");
        response->SetAttribute("ResultMinor", "Degraded");
        AppendKeyBinding(response.get(), *stale);
        return SerializeXkmsDocument(std::move(response));
      }
    }
    counters.store_errors->Add();
    return chaos.WithContext("xkmsd store");
  }

  counters.store_lookups->Add();
  Result<KeyBinding> found = store.Locate(name);
  auto response = MakeXkmsRoot("LocateResult");
  response->SetAttribute("ResultMajor", "Success");
  if (found.ok()) {
    AppendKeyBinding(response.get(), found.value());
  } else {
    response->SetAttribute("ResultMinor", "NoMatch");
  }
  return SerializeXkmsDocument(std::move(response));
}

Result<std::string> Xkmsd::Core::ServeValidate(const xml::Element& root) {
  const xml::Element* kb = root.FirstChildElementByLocalName("KeyBinding");
  if (kb == nullptr) {
    counters.shed_malformed->Add();
    return Status::ParseError("ValidateRequest missing KeyBinding")
        .WithContext("xkmsd request");
  }
  Result<KeyBinding> binding = ParseKeyBinding(*kb);
  if (!binding.ok()) {
    counters.shed_malformed->Add();
    return binding.status().WithContext("xkmsd request");
  }

  // Validate never degrades: a trust verdict must come from the
  // authoritative store or not at all. A broken store means
  // kUnavailable — the client retries or fails closed, it never receives
  // a stale Valid.
  Status chaos = injector()->Hit(fault::kXkmsdStore,
                                 "validate " + binding.value().name);
  if (!chaos.ok()) {
    counters.store_errors->Add();
    return chaos.WithContext("xkmsd store");
  }

  KeyStatus status =
      store.Validate(binding.value().name, binding.value().key);
  auto response = MakeXkmsRoot("ValidateResult");
  response->SetAttribute("ResultMajor", "Success");
  response->AppendElement("xkms:Status")
      ->SetTextContent(KeyStatusName(status));
  return SerializeXkmsDocument(std::move(response));
}

Result<std::string> Xkmsd::Core::ServeRegister(const xml::Element& root) {
  const xml::Element* kb = root.FirstChildElementByLocalName("KeyBinding");
  if (kb == nullptr) {
    counters.shed_malformed->Add();
    return Status::ParseError("RegisterRequest missing KeyBinding")
        .WithContext("xkmsd request");
  }
  Result<KeyBinding> binding = ParseKeyBinding(*kb);
  if (!binding.ok()) {
    counters.shed_malformed->Add();
    return binding.status().WithContext("xkmsd request");
  }

  Status chaos = injector()->Hit(fault::kXkmsdStore,
                                 "register " + binding.value().name);
  if (!chaos.ok()) {
    counters.store_errors->Add();
    return chaos.WithContext("xkmsd store");
  }

  Status status = store.Register(binding.value());
  if (status.ok()) AfterMutation();
  auto response = MakeXkmsRoot("RegisterResult");
  response->SetAttribute("ResultMajor", status.ok() ? "Success" : "Receiver");
  if (!status.ok()) {
    response->AppendElement("xkms:Reason")->SetTextContent(status.ToString());
  }
  return SerializeXkmsDocument(std::move(response));
}

Result<std::string> Xkmsd::Core::ServeRevoke(const xml::Element& root) {
  const xml::Element* name = root.FirstChildElementByLocalName("KeyName");
  if (name == nullptr) {
    counters.shed_malformed->Add();
    return Status::ParseError("RevokeRequest missing KeyName")
        .WithContext("xkmsd request");
  }
  std::string key_name = name->TextContent();

  Status chaos = injector()->Hit(fault::kXkmsdStore, "revoke " + key_name);
  if (!chaos.ok()) {
    counters.store_errors->Add();
    return chaos.WithContext("xkmsd store");
  }

  Status status = store.Revoke(key_name);
  if (status.ok()) {
    // Eager revocation propagation into the snapshot, so even the
    // degraded path reports Invalid (not merely Indeterminate) for keys
    // revoked before the store broke.
    snapshot.MarkInvalid(key_name);
    AfterMutation();
  }
  auto response = MakeXkmsRoot("RevokeResult");
  response->SetAttribute("ResultMajor", status.ok() ? "Success" : "Receiver");
  if (!status.ok()) {
    response->AppendElement("xkms:Reason")->SetTextContent(status.ToString());
  }
  return SerializeXkmsDocument(std::move(response));
}

void Xkmsd::Core::RefreshSnapshot() {
  snapshot.Replace(store.CopyAll(), clock());
}

void Xkmsd::Core::AfterMutation() {
  uint64_t count = mutations.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count % kSnapshotRefreshEvery == 0) RefreshSnapshot();
}

Xkmsd::Xkmsd(XkmsdOptions options)
    : core_(std::make_shared<Core>(std::move(options))) {}

Xkmsd::~Xkmsd() {
  {
    std::lock_guard<std::mutex> lock(core_->queue_mu);
    core_->shutting_down = true;
  }
  // Every admitted request completes before the shell dies; pool
  // callbacks that outlive us only touch the shared Core.
  core_->DrainPending();
}

void Xkmsd::Submit(std::string request_xml, Completion done) {
  core_->Submit(std::move(request_xml), std::move(done));
}

Result<std::string> Xkmsd::Handle(const std::string& request_xml) {
  return WaitForCompletion<Result<std::string>>(
      [&](Completion done) { Submit(request_xml, std::move(done)); });
}

Status Xkmsd::SeedBinding(const KeyBinding& binding) {
  Status status = core_->store.Register(binding);
  if (status.ok()) core_->AfterMutation();
  return status;
}

void Xkmsd::RefreshSnapshot() { core_->RefreshSnapshot(); }

XkmsdStats Xkmsd::stats() const {
  const Counters& c = core_->counters;
  XkmsdStats out;
  out.admitted = c.admitted->value();
  out.served = c.served->value();
  out.shed_queue_full = c.shed_queue_full->value();
  out.shed_oversized = c.shed_oversized->value();
  out.shed_malformed = c.shed_malformed->value();
  out.shed_fault = c.shed_fault->value();
  out.store_lookups = c.store_lookups->value();
  out.degraded_locates = c.degraded->value();
  out.store_errors = c.store_errors->value();
  out.queue_depth = c.queue_depth->value();
  return out;
}

const ShardedKeyStore& Xkmsd::store() const { return core_->store; }
const SnapshotStore& Xkmsd::snapshot() const { return core_->snapshot; }

namespace {

/// Runs `fn` once `delay_us` has passed: parked on `wheel` when there is
/// one, otherwise after sleeping through the delay on this thread.
template <typename Fn>
void AfterDelay(TimerWheel* wheel, int64_t delay_us, Fn fn) {
  if (delay_us > 0 && wheel != nullptr) {
    wheel->ScheduleAfter(delay_us, std::move(fn));
    return;
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  fn();
}

}  // namespace

Transport MakeServerTransport(Xkmsd* server, TimerWheel* wheel,
                              fault::FaultInjector* injector) {
  return [server, wheel, injector](
             const std::string& request_xml, AsyncCallback done) {
    fault::FaultInjector* fi = fault::Effective(injector);
    std::string wire_request = request_xml;
    int64_t request_delay_us = 0;
    Status hit = fi->HitDataDeferred(fault::kXkmsTransport, &wire_request,
                                     "request", &request_delay_us)
                     .WithContext("XKMS transport");
    if (!hit.ok()) {
      done(std::move(hit));
      return;
    }
    // The responder call plus the response-side fault point; runs after
    // the request-side latency (if any) has been served.
    auto respond = [server, wheel, fi, wire_request = std::move(wire_request),
                    done = std::move(done)]() mutable {
      server->Submit(
          std::move(wire_request),
          [wheel, fi,
           done = std::move(done)](Result<std::string> response) mutable {
            if (!response.ok()) {
              done(response.status().WithContext("XKMS service"));
              return;
            }
            std::string wire_response = std::move(response).value();
            int64_t response_delay_us = 0;
            Status hit =
                fi->HitDataDeferred(fault::kXkmsTransport, &wire_response,
                                    "response", &response_delay_us)
                    .WithContext("XKMS transport");
            if (!hit.ok()) {
              done(std::move(hit));
              return;
            }
            AfterDelay(wheel, response_delay_us,
                       [done = std::move(done),
                        wire_response = std::move(wire_response)]() mutable {
                         done(std::move(wire_response));
                       });
          });
    };
    AfterDelay(wheel, request_delay_us, std::move(respond));
  };
}

}  // namespace xkms
}  // namespace discsec
