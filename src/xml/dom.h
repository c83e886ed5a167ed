#ifndef DISCSEC_XML_DOM_H_
#define DISCSEC_XML_DOM_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace discsec {
namespace xml {

class Element;

/// Node kinds in the reduced DOM. CDATA sections are folded into Text (as
/// Canonical XML requires); DOCTYPE is not represented (the parser skips it),
/// which is also what C14N mandates.
enum class NodeKind {
  kElement,
  kText,
  kComment,
  kProcessingInstruction,
};

/// Base class for all tree nodes. Ownership: parents own children through
/// unique_ptr; `parent` is a non-owning back pointer (null at top level).
class Node {
 public:
  virtual ~Node() = default;
  NodeKind kind() const { return kind_; }
  Element* parent() const { return parent_; }

  bool IsElement() const { return kind_ == NodeKind::kElement; }
  bool IsText() const { return kind_ == NodeKind::kText; }
  bool IsComment() const { return kind_ == NodeKind::kComment; }
  bool IsPi() const { return kind_ == NodeKind::kProcessingInstruction; }

  /// Deep copy with null parent.
  virtual std::unique_ptr<Node> Clone() const = 0;

 protected:
  explicit Node(NodeKind kind) : kind_(kind) {}

 private:
  friend class Element;
  friend class Document;
  NodeKind kind_;
  Element* parent_ = nullptr;
};

/// Character data node.
class Text final : public Node {
 public:
  explicit Text(std::string data)
      : Node(NodeKind::kText), data_(std::move(data)) {}
  const std::string& data() const { return data_; }
  void set_data(std::string data) { data_ = std::move(data); }
  std::unique_ptr<Node> Clone() const override {
    return std::make_unique<Text>(data_);
  }

 private:
  std::string data_;
};

/// Comment node (content between <!-- and -->).
class Comment final : public Node {
 public:
  explicit Comment(std::string data)
      : Node(NodeKind::kComment), data_(std::move(data)) {}
  const std::string& data() const { return data_; }
  std::unique_ptr<Node> Clone() const override {
    return std::make_unique<Comment>(data_);
  }

 private:
  std::string data_;
};

/// Processing instruction (<?target data?>).
class Pi final : public Node {
 public:
  Pi(std::string target, std::string data)
      : Node(NodeKind::kProcessingInstruction),
        target_(std::move(target)),
        data_(std::move(data)) {}
  const std::string& target() const { return target_; }
  const std::string& data() const { return data_; }
  std::unique_ptr<Node> Clone() const override {
    return std::make_unique<Pi>(target_, data_);
  }

 private:
  std::string target_;
  std::string data_;
};

/// An attribute as written: `name` is the qualified name ("Id", "ds:Type",
/// "xmlns", "xmlns:ds"); `value` is the unescaped text.
struct Attribute {
  std::string name;
  std::string value;

  bool IsNamespaceDecl() const {
    return name == "xmlns" || name.rfind("xmlns:", 0) == 0;
  }
  /// For xmlns -> "", for xmlns:p -> "p"; undefined for non-declarations.
  std::string DeclaredPrefix() const {
    return name == "xmlns" ? std::string() : name.substr(6);
  }
};

/// Splits a qualified name into (prefix, local); prefix is empty when there
/// is no colon.
std::pair<std::string_view, std::string_view> SplitQName(std::string_view q);

/// Element node: qualified name, ordered attributes, ordered children.
class Element final : public Node {
 public:
  explicit Element(std::string name)
      : Node(NodeKind::kElement), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  std::string_view Prefix() const { return SplitQName(name_).first; }
  std::string_view LocalName() const { return SplitQName(name_).second; }

  // --- attributes ---
  const std::vector<Attribute>& attributes() const { return attributes_; }
  /// Returns the attribute value, or nullptr when absent.
  const std::string* GetAttribute(std::string_view name) const;
  /// Adds or replaces.
  void SetAttribute(std::string_view name, std::string_view value);
  /// Appends an attribute the element does not carry yet, taking both
  /// strings without the lookup SetAttribute makes (the parser has already
  /// rejected the duplicate).
  void AppendAttribute(std::string name, std::string value);
  /// Removes if present; returns whether it was present.
  bool RemoveAttribute(std::string_view name);

  // --- children ---
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  size_t ChildCount() const { return children_.size(); }
  Node* ChildAt(size_t i) const { return children_[i].get(); }

  /// Appends `child` and returns a raw pointer to it.
  Node* AppendChild(std::unique_ptr<Node> child);
  /// Convenience: creates and appends an Element / Text child.
  Element* AppendElement(std::string name);
  Text* AppendText(std::string data);
  /// Inserts before position `index` (clamped to [0, size]).
  Node* InsertChild(size_t index, std::unique_ptr<Node> child);
  /// Detaches the child at `index`, returning ownership.
  std::unique_ptr<Node> RemoveChildAt(size_t index);
  /// Detaches `child` if it is a direct child; null otherwise.
  std::unique_ptr<Node> RemoveChild(Node* child);
  /// Replaces `child` with `replacement`, returning the detached child.
  std::unique_ptr<Node> ReplaceChild(Node* child,
                                     std::unique_ptr<Node> replacement);
  /// Removes all children.
  void ClearChildren();
  /// Index of `child` among children, or npos.
  size_t IndexOfChild(const Node* child) const;

  /// First child element with the given qualified name (exact match), or
  /// nullptr. Empty name matches any element.
  Element* FirstChildElement(std::string_view name = {}) const;
  /// All child elements with the given qualified name (or all, when empty).
  std::vector<Element*> ChildElements(std::string_view name = {}) const;
  /// First child element matching local name, ignoring prefix.
  Element* FirstChildElementByLocalName(std::string_view local) const;

  /// Concatenation of all descendant text (used for simple-content
  /// elements such as <DigestValue>).
  std::string TextContent() const;
  /// Replaces children with a single text node.
  void SetTextContent(std::string text);

  /// Resolves `prefix` (may be empty for the default namespace) against the
  /// xmlns declarations on this element and its ancestors. Returns the
  /// namespace URI or empty string when unbound. The "xml" prefix resolves
  /// to the fixed XML namespace.
  std::string LookupNamespaceUri(std::string_view prefix) const;
  /// The namespace URI of this element itself.
  std::string NamespaceUri() const { return LookupNamespaceUri(Prefix()); }

  /// Depth-first search for a descendant-or-self element whose `Id` (or
  /// `id`) attribute equals `id`; nullptr when not found. When `count` is
  /// non-null it receives the TOTAL number of matching elements, so callers
  /// can detect the duplicate-ID ambiguity this first-match rule would
  /// otherwise hide (signature-wrapping vector; prefer IdRegistry for
  /// security-relevant resolution).
  Element* FindById(std::string_view id, size_t* count = nullptr);

  /// Depth-first pre-order visit of descendant-or-self elements.
  template <typename Fn>
  void ForEachElement(Fn&& fn) {
    fn(this);
    for (auto& child : children_) {
      if (child->IsElement()) {
        static_cast<Element*>(child.get())->ForEachElement(fn);
      }
    }
  }

  std::unique_ptr<Node> Clone() const override;
  /// Clone with the concrete type preserved.
  std::unique_ptr<Element> CloneElement() const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// A parsed document: optional leading/trailing comments and PIs plus
/// exactly one root element.
class Document {
 public:
  Document() = default;
  Document(Document&&) = default;
  Document& operator=(Document&& other) {
    if (this != &other) {
      root_ = other.root_;
      children_ = std::move(other.children_);
      other.root_ = nullptr;
    }
    return *this;
  }

  /// Creates a document owning `root` (for programmatic construction).
  static Document WithRoot(std::unique_ptr<Element> root);

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  /// The single document element; never null for a parsed document.
  Element* root() const { return root_; }

  /// Appends a top-level node; at most one element is allowed.
  Status AppendChild(std::unique_ptr<Node> child);

  /// Deep copy.
  Document Clone() const;

  /// Convenience: FindById on the root. First match in document order;
  /// `count` (when non-null) receives the total number of matches so the
  /// duplicate-ID ambiguity is detectable. Security-relevant callers should
  /// use IdRegistry (or FindByIdStrict) instead.
  Element* FindById(std::string_view id, size_t* count = nullptr) const {
    if (root_ == nullptr) {
      if (count != nullptr) *count = 0;
      return nullptr;
    }
    return root_->FindById(id, count);
  }

  /// Strict resolution: NotFound when no element declares `id`, Corruption
  /// when more than one does (the duplicate-ID wrapping vector). One
  /// pre-order walk that counts every match; no index is built, so a
  /// caller resolving many Ids in one document should use IdRegistry.
  Result<Element*> FindByIdStrict(std::string_view id) const;

 private:
  std::vector<std::unique_ptr<Node>> children_;
  Element* root_ = nullptr;
};

/// Document-wide index of `Id`/`id` attributes, built in one pre-order
/// pass. Unlike first-match FindById it *reports* duplicate declarations —
/// the ambiguity XML-signature-wrapping attacks exploit (a second element
/// carrying the signed Id placed where a naive resolver finds it first).
class IdRegistry {
 public:
  /// Indexes every descendant-or-self element of `doc`'s root.
  explicit IdRegistry(const Document& doc);
  /// Indexes the subtree rooted at `root` (may be null: empty registry).
  explicit IdRegistry(Element* root);

  /// Strict resolution: NotFound when absent, Corruption when `id` is
  /// declared by more than one element.
  Result<Element*> Find(std::string_view id) const;

  /// Every element declaring `id`, in document order (null when none).
  const std::vector<Element*>* AllOf(std::string_view id) const;

  /// Ids declared by more than one element, in first-seen document order.
  const std::vector<std::string>& duplicate_ids() const {
    return duplicate_ids_;
  }
  bool HasDuplicates() const { return !duplicate_ids_.empty(); }

  /// Number of distinct ids indexed.
  size_t size() const { return by_id_.size(); }

 private:
  std::map<std::string, std::vector<Element*>, std::less<>> by_id_;
  std::vector<std::string> duplicate_ids_;
};

/// Human-readable slash path of `e` from its root: each step is the element
/// name, non-root steps carrying the index among same-parent *element*
/// children — e.g. "/cluster/track[1]/manifest[0]". This is the diagnostic
/// form the see-what-is-signed verifier report uses.
std::string ElementPath(const Element* e);

/// The fixed namespace bound to the `xml` prefix.
inline constexpr char kXmlNamespace[] =
    "http://www.w3.org/XML/1998/namespace";

}  // namespace xml
}  // namespace discsec

#endif  // DISCSEC_XML_DOM_H_
