#include "xml/dom.h"

#include <algorithm>

namespace discsec {
namespace xml {

std::pair<std::string_view, std::string_view> SplitQName(std::string_view q) {
  size_t colon = q.find(':');
  if (colon == std::string_view::npos) {
    return {std::string_view(), q};
  }
  return {q.substr(0, colon), q.substr(colon + 1)};
}

const std::string* Element::GetAttribute(std::string_view name) const {
  for (const auto& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

void Element::SetAttribute(std::string_view name, std::string_view value) {
  for (auto& attr : attributes_) {
    if (attr.name == name) {
      attr.value = std::string(value);
      return;
    }
  }
  attributes_.push_back({std::string(name), std::string(value)});
}

void Element::AppendAttribute(std::string name, std::string value) {
  attributes_.push_back({std::move(name), std::move(value)});
}

bool Element::RemoveAttribute(std::string_view name) {
  for (auto it = attributes_.begin(); it != attributes_.end(); ++it) {
    if (it->name == name) {
      attributes_.erase(it);
      return true;
    }
  }
  return false;
}

Node* Element::AppendChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Element* Element::AppendElement(std::string name) {
  return static_cast<Element*>(
      AppendChild(std::make_unique<Element>(std::move(name))));
}

Text* Element::AppendText(std::string data) {
  return static_cast<Text*>(
      AppendChild(std::make_unique<Text>(std::move(data))));
}

Node* Element::InsertChild(size_t index, std::unique_ptr<Node> child) {
  if (index > children_.size()) index = children_.size();
  child->parent_ = this;
  auto it = children_.insert(children_.begin() + index, std::move(child));
  return it->get();
}

std::unique_ptr<Node> Element::RemoveChildAt(size_t index) {
  if (index >= children_.size()) return nullptr;
  std::unique_ptr<Node> out = std::move(children_[index]);
  children_.erase(children_.begin() + index);
  out->parent_ = nullptr;
  return out;
}

std::unique_ptr<Node> Element::RemoveChild(Node* child) {
  size_t idx = IndexOfChild(child);
  if (idx == static_cast<size_t>(-1)) return nullptr;
  return RemoveChildAt(idx);
}

std::unique_ptr<Node> Element::ReplaceChild(Node* child,
                                            std::unique_ptr<Node> replacement) {
  size_t idx = IndexOfChild(child);
  if (idx == static_cast<size_t>(-1)) return nullptr;
  replacement->parent_ = this;
  std::unique_ptr<Node> old = std::move(children_[idx]);
  children_[idx] = std::move(replacement);
  old->parent_ = nullptr;
  return old;
}

void Element::ClearChildren() { children_.clear(); }

size_t Element::IndexOfChild(const Node* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) return i;
  }
  return static_cast<size_t>(-1);
}

Element* Element::FirstChildElement(std::string_view name) const {
  for (const auto& child : children_) {
    if (!child->IsElement()) continue;
    auto* elem = static_cast<Element*>(child.get());
    if (name.empty() || elem->name() == name) return elem;
  }
  return nullptr;
}

std::vector<Element*> Element::ChildElements(std::string_view name) const {
  std::vector<Element*> out;
  for (const auto& child : children_) {
    if (!child->IsElement()) continue;
    auto* elem = static_cast<Element*>(child.get());
    if (name.empty() || elem->name() == name) out.push_back(elem);
  }
  return out;
}

Element* Element::FirstChildElementByLocalName(std::string_view local) const {
  for (const auto& child : children_) {
    if (!child->IsElement()) continue;
    auto* elem = static_cast<Element*>(child.get());
    if (elem->LocalName() == local) return elem;
  }
  return nullptr;
}

namespace {

void AppendTextContent(const Element& e, std::string* out) {
  for (const auto& child : e.children()) {
    if (child->IsText()) {
      *out += static_cast<const Text*>(child.get())->data();
    } else if (child->IsElement()) {
      AppendTextContent(*static_cast<const Element*>(child.get()), out);
    }
  }
}

}  // namespace

std::string Element::TextContent() const {
  // One output buffer for the whole subtree — the recursion used to build
  // (and discard) an intermediate string per nested element.
  std::string out;
  AppendTextContent(*this, &out);
  return out;
}

void Element::SetTextContent(std::string text) {
  ClearChildren();
  AppendText(std::move(text));
}

std::string Element::LookupNamespaceUri(std::string_view prefix) const {
  if (prefix == "xml") return kXmlNamespace;
  // Match xmlns / xmlns:prefix in place — this is the canonicalizer's
  // innermost lookup, so it must not build a temporary declaration name.
  for (const Element* e = this; e != nullptr; e = e->parent()) {
    for (const Attribute& attr : e->attributes_) {
      if (prefix.empty()) {
        if (attr.name == "xmlns") return attr.value;
      } else if (attr.name.size() == 6 + prefix.size() &&
                 attr.name.compare(0, 6, "xmlns:") == 0 &&
                 std::string_view(attr.name).substr(6) == prefix) {
        return attr.value;
      }
    }
  }
  return std::string();
}

namespace {

/// The value of the element's ID attribute (`Id` preferred over `id`), or
/// null when it carries neither. One pass over the attributes.
const std::string* IdAttributeOf(const Element& e) {
  const std::string* lower = nullptr;
  for (const Attribute& attr : e.attributes()) {
    if (attr.name == "Id") return &attr.value;
    if (attr.name == "id") lower = &attr.value;
  }
  return lower;
}

/// Strict resolution from a match count: NotFound for none, Corruption for
/// more than one (the duplicate-ID wrapping vector).
Result<Element*> StrictMatch(std::string_view id, size_t count,
                             Element* first) {
  if (count == 0) {
    return Status::NotFound("no element with Id '" + std::string(id) + "'");
  }
  if (count > 1) {
    return Status::Corruption("Id '" + std::string(id) +
                              "' is ambiguous: declared by " +
                              std::to_string(count) +
                              " elements (duplicate-ID wrapping)");
  }
  return first;
}

}  // namespace

Element* Element::FindById(std::string_view id, size_t* count) {
  Element* found = nullptr;
  size_t matches = 0;
  ForEachElement([&](Element* e) {
    const std::string* v = IdAttributeOf(*e);
    if (v != nullptr && *v == id) {
      ++matches;
      if (found == nullptr) found = e;
    }
  });
  if (count != nullptr) *count = matches;
  return found;
}

std::unique_ptr<Node> Element::Clone() const { return CloneElement(); }

std::unique_ptr<Element> Element::CloneElement() const {
  auto copy = std::make_unique<Element>(name_);
  copy->attributes_ = attributes_;
  for (const auto& child : children_) {
    copy->AppendChild(child->Clone());
  }
  return copy;
}

Document Document::WithRoot(std::unique_ptr<Element> root) {
  Document doc;
  doc.root_ = root.get();
  doc.children_.push_back(std::move(root));
  return doc;
}

Status Document::AppendChild(std::unique_ptr<Node> child) {
  if (child->IsText()) {
    return Status::InvalidArgument("text not allowed at document level");
  }
  if (child->IsElement()) {
    if (root_ != nullptr) {
      return Status::InvalidArgument("document already has a root element");
    }
    root_ = static_cast<Element*>(child.get());
  }
  children_.push_back(std::move(child));
  return Status::OK();
}

Document Document::Clone() const {
  Document copy;
  for (const auto& child : children_) {
    auto cloned = child->Clone();
    if (cloned->IsElement()) {
      copy.root_ = static_cast<Element*>(cloned.get());
    }
    copy.children_.push_back(std::move(cloned));
  }
  return copy;
}

Result<Element*> Document::FindByIdStrict(std::string_view id) const {
  size_t count = 0;
  Element* first = FindById(id, &count);
  return StrictMatch(id, count, first);
}

IdRegistry::IdRegistry(const Document& doc) : IdRegistry(doc.root()) {}

IdRegistry::IdRegistry(Element* root) {
  if (root == nullptr) return;
  root->ForEachElement([&](Element* e) {
    const std::string* v = IdAttributeOf(*e);
    if (v == nullptr) return;
    std::vector<Element*>& bucket = by_id_[*v];
    bucket.push_back(e);
    if (bucket.size() == 2) duplicate_ids_.push_back(*v);
  });
}

Result<Element*> IdRegistry::Find(std::string_view id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return StrictMatch(id, 0, nullptr);
  return StrictMatch(id, it->second.size(), it->second.front());
}

const std::vector<Element*>* IdRegistry::AllOf(std::string_view id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

std::string ElementPath(const Element* e) {
  if (e == nullptr) return std::string();
  std::vector<std::string> steps;
  for (const Element* cur = e; cur != nullptr; cur = cur->parent()) {
    if (cur->parent() == nullptr) {
      steps.push_back(cur->name());
      break;
    }
    size_t index = 0;
    for (const auto& sibling : cur->parent()->children()) {
      if (sibling.get() == cur) break;
      if (sibling->IsElement()) ++index;
    }
    steps.push_back(cur->name() + "[" + std::to_string(index) + "]");
  }
  std::string path;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    path += "/" + *it;
  }
  return path;
}

}  // namespace xml
}  // namespace discsec
