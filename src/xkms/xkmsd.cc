#include "xkms/xkmsd.h"

#include <algorithm>
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
  shard.generation.fetch_add(1, std::memory_order_release);
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
  shard.generation.fetch_add(1, std::memory_order_release);
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

uint64_t ShardedKeyStore::GenerationFor(const std::string& name) const {
  return ShardFor(name).generation.load(std::memory_order_acquire);
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
/// built with. Each event increments exactly one of them, from workers,
/// the wheel thread and submitters alike (Counter::Add is a relaxed
/// atomic).
struct Counters {
  explicit Counters(obs::MetricsRegistry* metrics)
      : admitted(metrics->GetCounter("xkmsd.admitted")),
        served(metrics->GetCounter("xkmsd.served")),
        shed_queue_full(metrics->GetCounter("xkmsd.shed.queue_full")),
        shed_deadline(metrics->GetCounter("xkmsd.shed.deadline")),
        shed_oversized(metrics->GetCounter("xkmsd.shed.oversized")),
        shed_malformed(metrics->GetCounter("xkmsd.shed.malformed")),
        shed_fault(metrics->GetCounter("xkmsd.shed.fault")),
        coalesced(metrics->GetCounter("xkmsd.coalesced")),
        store_lookups(metrics->GetCounter("xkmsd.store_lookups")),
        degraded(metrics->GetCounter("xkmsd.degraded")),
        store_errors(metrics->GetCounter("xkmsd.store_errors")),
        queue_depth(metrics->GetCounter("xkmsd.queue_depth")) {}

  obs::Counter* admitted;
  obs::Counter* served;
  obs::Counter* shed_queue_full;
  obs::Counter* shed_deadline;
  obs::Counter* shed_oversized;
  obs::Counter* shed_malformed;
  obs::Counter* shed_fault;
  obs::Counter* coalesced;
  obs::Counter* store_lookups;
  obs::Counter* degraded;
  obs::Counter* store_errors;
  obs::Counter* queue_depth;  ///< gauge, Set under queue_mu
};

}  // namespace

struct Xkmsd::Core : std::enable_shared_from_this<Xkmsd::Core> {
  struct Item {
    std::string request;
    XkmsdPriority priority = XkmsdPriority::kMutate;
    int64_t deadline_us = 0;
    int64_t enqueued_at_us = 0;
    Completion done;
    /// Claimed exactly once, by the worker that dequeues it or by the
    /// wheel's deadline callback that sheds it mid-queue.
    std::atomic<bool> taken{false};
  };

  /// One in-flight coalesced Locate: the leader performs the lookup, every
  /// request that attached while it was in flight shares the result.
  struct Flight {
    uint64_t generation = 0;  ///< owning shard's generation at creation
    std::vector<std::shared_ptr<Item>> waiters;
  };

  explicit Core(XkmsdOptions opts)
      : options(std::move(opts)),
        store(options.store_shards),
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
  std::deque<std::shared_ptr<Item>> queues[kXkmsdPriorities];
  size_t live[kXkmsdPriorities] = {0, 0, 0};  // enqueued and unclaimed
  bool shutting_down = false;

  std::mutex flights_mu;
  std::map<std::string, std::shared_ptr<Flight>> flights;

  std::mutex pending_mu;
  std::condition_variable pending_cv;
  size_t pending = 0;  // admitted but not yet completed

  std::atomic<uint64_t> mutations{0};

  fault::FaultInjector* injector() {
    return fault::Effective(options.fault);
  }

  /// Publishes the "xkmsd.queue_depth" gauge; called under queue_mu
  /// wherever live[] changes.
  void PublishQueueDepth() {
    size_t depth = 0;
    for (size_t i = 0; i < kXkmsdPriorities; ++i) depth += live[i];
    counters.queue_depth->Set(depth);
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
  void Complete(const std::shared_ptr<Item>& item, Result<std::string> r) {
    item->done(std::move(r));
    TrackPending(-1);
  }

  int64_t RetryAfterHint(XkmsdPriority priority) {
    if (options.retry_after_base_us <= 0) return 0;
    size_t total_live = 0;
    size_t limit =
        std::max<size_t>(1, options.queue_limits[static_cast<size_t>(
                                priority)]);
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      for (size_t i = 0; i < kXkmsdPriorities; ++i) total_live += live[i];
    }
    // Deeper backlog, longer hint: base * (1 + depth/limit). The client's
    // jitter decorrelates the fleet around it.
    return options.retry_after_base_us *
           static_cast<int64_t>(1 + total_live / limit);
  }

  void Submit(std::string request_xml, XkmsdRequestOptions req,
              Completion done);
  void ProcessOne();
  void Serve(const std::shared_ptr<Item>& item);
  void ServeLocate(const std::shared_ptr<Item>& item,
                   const std::string& name);
  Result<std::string> LookupLocate(const std::string& name);
  Result<std::string> ServeValidate(const xml::Element& root);
  Result<std::string> ServeRegister(const xml::Element& root);
  Result<std::string> ServeRevoke(const xml::Element& root);
  void RefreshSnapshot();
  void AfterMutation();
};

void Xkmsd::Core::Submit(std::string request_xml, XkmsdRequestOptions req,
                         Completion done) {
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

  const int64_t now_us = clock();

  // 3. Deadline-aware rejection: if the client's deadline already passed,
  // any work we do is wasted — shed before parsing, before queueing.
  if (req.deadline_us > 0 && now_us >= req.deadline_us) {
    counters.shed_deadline->Add();
    done(Status::DeadlineExceeded("client deadline expired " +
                                  std::to_string(now_us - req.deadline_us) +
                                  "us before admission")
             .WithContext("xkmsd admission"));
    return;
  }

  // 4. Queue-depth load shedding, with a retry-after hint sized to the
  // backlog so the fleet spreads its return instead of hammering.
  auto item = std::make_shared<Item>();
  item->request = std::move(request_xml);
  item->priority = priority;
  item->deadline_us = req.deadline_us;
  item->enqueued_at_us = now_us;
  item->done = std::move(done);

  const size_t pi = static_cast<size_t>(priority);
  size_t depth_at_rejection = 0;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    if (live[pi] >= options.queue_limits[pi]) {
      rejected = true;
      depth_at_rejection = live[pi];
    } else {
      live[pi]++;
      PublishQueueDepth();
      queues[pi].push_back(item);
    }
  }
  if (rejected) {
    counters.shed_queue_full->Add();
    // The hint is computed outside the queue lock (RetryAfterHint
    // re-acquires it to read the depth).
    item->done(Status::Unavailable(
                   "xkmsd overloaded: " +
                   std::string(XkmsdPriorityName(priority)) + " queue at " +
                   std::to_string(depth_at_rejection) + "/" +
                   std::to_string(options.queue_limits[pi]))
                   .WithRetryAfter(RetryAfterHint(priority))
                   .WithContext("xkmsd admission"));
    return;
  }

  counters.admitted->Add();
  TrackPending(+1);

  // 5. Mid-queue deadline shedding: park a wheel entry at the deadline
  // that claims-and-sheds the item if no worker got to it first.
  if (item->deadline_us > 0 && options.wheel != nullptr) {
    auto self = shared_from_this();
    int64_t delay_us = item->deadline_us - now_us;
    options.wheel->ScheduleAfter(delay_us, [self, item] {
      if (item->taken.exchange(true, std::memory_order_acq_rel)) return;
      {
        std::lock_guard<std::mutex> lock(self->queue_mu);
        self->live[static_cast<size_t>(item->priority)]--;
        self->PublishQueueDepth();
      }
      self->counters.shed_deadline->Add();
      self->Complete(
          item, Status::DeadlineExceeded(
                    "client deadline expired while queued behind " +
                    std::string(XkmsdPriorityName(item->priority)) +
                    " backlog")
                    .WithContext("xkmsd admission"));
    });
  }

  if (options.pool != nullptr) {
    auto self = shared_from_this();
    options.pool->Submit([self] { self->ProcessOne(); });
  } else {
    ProcessOne();
  }
}

void Xkmsd::Core::ProcessOne() {
  std::shared_ptr<Item> item;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    for (size_t pi = 0; pi < kXkmsdPriorities && item == nullptr; ++pi) {
      auto& queue = queues[pi];
      while (!queue.empty()) {
        std::shared_ptr<Item> candidate = queue.front();
        queue.pop_front();
        // Items the wheel already shed stay in the deque until popped
        // here; they hold no live slot.
        if (candidate->taken.exchange(true, std::memory_order_acq_rel)) {
          continue;
        }
        live[static_cast<size_t>(candidate->priority)]--;
        PublishQueueDepth();
        item = std::move(candidate);
        break;
      }
    }
  }
  // Every enqueue submits exactly one ProcessOne; when the wheel shed our
  // item there is nothing left to claim.
  if (item == nullptr) return;

  const int64_t now_us = clock();
  if (queue_wait_hist != nullptr && now_us >= item->enqueued_at_us) {
    queue_wait_hist->Observe(
        static_cast<uint64_t>(now_us - item->enqueued_at_us));
  }

  // Deadline re-check at dequeue (covers the no-wheel configuration).
  if (item->deadline_us > 0 && now_us >= item->deadline_us) {
    counters.shed_deadline->Add();
    Complete(item, Status::DeadlineExceeded(
                       "client deadline expired while queued")
                       .WithContext("xkmsd admission"));
    return;
  }

  Serve(item);
}

void Xkmsd::Core::Serve(const std::shared_ptr<Item>& item) {
  obs::ScopedSpan span(options.tracer, "xkmsd.request");
  span.SetAttr("priority", XkmsdPriorityName(item->priority));
  obs::ScopedLatency latency(serve_hist);

  // The bounded parse happens here, in the worker, after admission but
  // before any signature or store work: a depth bomb or attribute bomb
  // costs one rejected parse, never a store lock.
  xml::ParseOptions parse_options = options.parse;
  parse_options.tracer = options.tracer;
  Result<xml::Document> doc = xml::Parse(item->request, parse_options);
  if (!doc.ok()) {
    counters.shed_malformed->Add();
    span.SetAttr("outcome", "malformed");
    Complete(item, doc.status().WithContext("xkmsd request"));
    return;
  }

  const xml::Element* root = doc.value().root();
  std::string op(root->LocalName());
  span.SetAttr("op", op);

  if (op == "LocateRequest") {
    const xml::Element* name = root->FirstChildElementByLocalName("KeyName");
    if (name == nullptr) {
      counters.shed_malformed->Add();
      span.SetAttr("outcome", "malformed");
      Complete(item, Status::ParseError("LocateRequest missing KeyName")
                         .WithContext("xkmsd request"));
      return;
    }
    ServeLocate(item, name->TextContent());
    return;
  }

  Result<std::string> response =
      op == "ValidateRequest"   ? ServeValidate(*root)
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

void Xkmsd::Core::ServeLocate(const std::shared_ptr<Item>& item,
                              const std::string& name) {
  // Coalescing: if a lookup for this name is already in flight *and* the
  // owning shard has not mutated since it started, ride it. A mutation in
  // between makes the in-flight answer stale for us — start a fresh
  // flight instead: an answer computed before a mutation never reaches a
  // request that arrived after it.
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(flights_mu);
    uint64_t generation = store.GenerationFor(name);
    auto it = flights.find(name);
    if (it != flights.end() && it->second->generation == generation) {
      it->second->waiters.push_back(item);
      counters.coalesced->Add();
      return;
    }
    flight = std::make_shared<Flight>();
    flight->generation = generation;
    flight->waiters.push_back(item);
    flights[name] = flight;  // replaces a stale flight; its leader still
                             // holds a reference and completes its own
                             // waiters with the older answer
  }

  Result<std::string> response = LookupLocate(name);

  std::vector<std::shared_ptr<Item>> waiters;
  {
    std::lock_guard<std::mutex> lock(flights_mu);
    auto it = flights.find(name);
    if (it != flights.end() && it->second == flight) flights.erase(it);
    waiters = std::move(flight->waiters);
  }
  for (const auto& waiter : waiters) {
    if (response.ok()) {
      counters.served->Add();
    }
    Complete(waiter, response);
  }
}

Result<std::string> Xkmsd::Core::LookupLocate(const std::string& name) {
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

  // Validate never degrades and is never coalesced: a trust verdict must
  // come from the authoritative store or not at all. A broken store means
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
  if (options.snapshot_refresh_every > 0 &&
      count % options.snapshot_refresh_every == 0) {
    RefreshSnapshot();
  }
}

Xkmsd::Xkmsd(XkmsdOptions options)
    : core_(std::make_shared<Core>(std::move(options))) {}

Xkmsd::~Xkmsd() {
  {
    std::lock_guard<std::mutex> lock(core_->queue_mu);
    core_->shutting_down = true;
  }
  // Every admitted request completes before the shell dies; wheel/pool
  // callbacks that outlive us only touch the shared Core.
  core_->DrainPending();
}

void Xkmsd::Submit(std::string request_xml, XkmsdRequestOptions req,
                   Completion done) {
  core_->Submit(std::move(request_xml), req, std::move(done));
}

Result<std::string> Xkmsd::Handle(const std::string& request_xml,
                                  XkmsdRequestOptions req) {
  return WaitForCompletion<Result<std::string>>(
      [&](Completion done) { Submit(request_xml, req, std::move(done)); });
}

Status Xkmsd::SeedBinding(const KeyBinding& binding) {
  Status status = core_->store.Register(binding);
  if (status.ok()) core_->AfterMutation();
  return status;
}

void Xkmsd::RefreshSnapshot() { core_->RefreshSnapshot(); }

int64_t Xkmsd::NowUs() const { return core_->clock(); }

XkmsdStats Xkmsd::stats() const {
  const Counters& c = core_->counters;
  XkmsdStats out;
  out.admitted = c.admitted->value();
  out.served = c.served->value();
  out.shed_queue_full = c.shed_queue_full->value();
  out.shed_deadline = c.shed_deadline->value();
  out.shed_oversized = c.shed_oversized->value();
  out.shed_malformed = c.shed_malformed->value();
  out.shed_fault = c.shed_fault->value();
  out.coalesced_locates = c.coalesced->value();
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

Transport MakeServerTransport(Xkmsd* server, int64_t request_budget_us,
                              TimerWheel* wheel,
                              fault::FaultInjector* injector) {
  return [server, request_budget_us, wheel, injector](
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
    auto respond = [server, request_budget_us, wheel, fi,
                    wire_request = std::move(wire_request),
                    done = std::move(done)]() mutable {
      XkmsdRequestOptions req;
      if (request_budget_us > 0) {
        req.deadline_us = server->NowUs() + request_budget_us;
      }
      server->Submit(
          std::move(wire_request), req,
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
