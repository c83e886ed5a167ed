#include "xkms/service.h"

#include "pki/key_codec.h"
#include "xml/serializer.h"

namespace discsec {
namespace xkms {

std::string SerializeXkmsDocument(std::unique_ptr<xml::Element> root) {
  xml::Document doc = xml::Document::WithRoot(std::move(root));
  xml::SerializeOptions options;
  options.xml_declaration = false;
  return xml::Serialize(doc, options);
}

std::unique_ptr<xml::Element> MakeXkmsRoot(const std::string& name) {
  auto root = std::make_unique<xml::Element>("xkms:" + name);
  root->SetAttribute("xmlns:xkms", kXkmsNamespace);
  return root;
}

void AppendKeyBinding(xml::Element* parent, const KeyBinding& binding) {
  xml::Element* kb = parent->AppendElement("xkms:KeyBinding");
  kb->AppendElement("xkms:KeyName")->SetTextContent(binding.name);
  kb->AppendChild(pki::RsaKeyToXml(binding.key, "xkms:RSAKeyValue"));
  for (const std::string& usage : binding.key_usage) {
    kb->AppendElement("xkms:KeyUsage")->SetTextContent(usage);
  }
  kb->AppendElement("xkms:Status")
      ->SetTextContent(KeyStatusName(binding.status));
}

Result<KeyBinding> ParseKeyBinding(const xml::Element& kb) {
  KeyBinding binding;
  const xml::Element* name = kb.FirstChildElementByLocalName("KeyName");
  const xml::Element* key = kb.FirstChildElementByLocalName("RSAKeyValue");
  if (name == nullptr || key == nullptr) {
    return Status::ParseError("KeyBinding missing KeyName or RSAKeyValue");
  }
  binding.name = name->TextContent();
  DISCSEC_ASSIGN_OR_RETURN(binding.key, pki::RsaKeyFromXml(*key));
  for (const auto& child : kb.children()) {
    if (!child->IsElement()) continue;
    const auto* e = static_cast<const xml::Element*>(child.get());
    if (e->LocalName() == "KeyUsage") {
      binding.key_usage.push_back(e->TextContent());
    } else if (e->LocalName() == "Status") {
      binding.status = KeyStatusFromName(e->TextContent());
    }
  }
  return binding;
}

const char* KeyStatusName(KeyStatus status) {
  switch (status) {
    case KeyStatus::kValid:
      return "Valid";
    case KeyStatus::kInvalid:
      return "Invalid";
    case KeyStatus::kIndeterminate:
      return "Indeterminate";
  }
  return "Indeterminate";
}

KeyStatus KeyStatusFromName(std::string_view name) {
  if (name == "Valid") return KeyStatus::kValid;
  if (name == "Invalid") return KeyStatus::kInvalid;
  return KeyStatus::kIndeterminate;
}

std::string BuildLocateRequest(const std::string& name) {
  auto root = MakeXkmsRoot("LocateRequest");
  root->AppendElement("xkms:KeyName")->SetTextContent(name);
  return SerializeXkmsDocument(std::move(root));
}

std::string BuildValidateRequest(const std::string& name,
                                 const crypto::RsaPublicKey& key) {
  auto root = MakeXkmsRoot("ValidateRequest");
  KeyBinding binding;
  binding.name = name;
  binding.key = key;
  AppendKeyBinding(root.get(), binding);
  return SerializeXkmsDocument(std::move(root));
}

std::string BuildRegisterRequest(const KeyBinding& binding) {
  auto root = MakeXkmsRoot("RegisterRequest");
  AppendKeyBinding(root.get(), binding);
  return SerializeXkmsDocument(std::move(root));
}

std::string BuildRevokeRequest(const std::string& name) {
  auto root = MakeXkmsRoot("RevokeRequest");
  root->AppendElement("xkms:KeyName")->SetTextContent(name);
  return SerializeXkmsDocument(std::move(root));
}

}  // namespace xkms
}  // namespace discsec
