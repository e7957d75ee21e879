#include "ias/http_api.h"

#include "common/base64.h"
#include "common/hex.h"
#include "obs/metrics.h"

namespace vnfsgx::ias {

http::Router make_ias_router(IasService& service) {
  http::Router router;

  router.add("POST", "/attestation/v4/report",
             [&service](const http::Request& req, const http::RequestContext&) {
               json::Value body;
               try {
                 body = json::parse(vnfsgx::to_string(req.body));
               } catch (const ParseError&) {
                 return http::Response::error(400, "invalid JSON");
               }
               if (!body.contains("isvEnclaveQuote")) {
                 return http::Response::error(400, "missing isvEnclaveQuote");
               }
               Bytes quote_bytes;
               try {
                 quote_bytes =
                     base64_decode(body.at("isvEnclaveQuote").as_string());
               } catch (const std::exception&) {
                 return http::Response::error(400, "invalid base64");
               }
               const VerificationReport avr = service.verify_quote(quote_bytes);
               http::Response res = http::Response::json(200, avr.body_json);
               res.headers.set("X-IASReport-Signature",
                               base64_encode(ByteView(avr.signature.data(),
                                                      avr.signature.size())));
               return res;
             });

  router.add("GET", "/attestation/v4/sigrl/*",
             [&service](const http::Request& req, const http::RequestContext&) {
               const std::string path = req.path();
               const std::string hex_id =
                   path.substr(std::string("/attestation/v4/sigrl/").size());
               sgx::PlatformId id{};
               try {
                 const Bytes raw = from_hex(hex_id);
                 if (raw.size() != id.size()) throw ParseError("bad id");
                 std::copy(raw.begin(), raw.end(), id.begin());
               } catch (const std::exception&) {
                 return http::Response::error(400, "bad platform id");
               }
               json::Object body;
               body["revoked"] = service.is_revoked(id);
               return http::Response::json(
                   200, json::serialize(json::Value(std::move(body))));
             });

  return router;
}

IasClient::IasClient(Connect connect,
                     crypto::Ed25519PublicKey report_signing_key,
                     std::size_t max_connections)
    : pool_(std::make_shared<http::ClientPool>(
          std::move(connect),
          http::ClientPool::Options{max_connections, "ias"})),
      report_key_(report_signing_key) {}

VerificationReport IasClient::verify_quote(ByteView quote_bytes) {
  json::Object request_body;
  request_body["isvEnclaveQuote"] = base64_encode(quote_bytes);

  http::Request req;
  req.method = "POST";
  req.target = "/attestation/v4/report";
  req.headers.set("Content-Type", "application/json");
  req.body = to_bytes(json::serialize(json::Value(std::move(request_body))));

  static obs::Gauge& inflight = obs::registry().gauge(
      "vnfsgx_ias_inflight", {},
      "IAS verification round-trips currently in flight");
  inflight.add(1);
  http::Response res;
  try {
    res = pool_->request(req);
  } catch (...) {
    inflight.add(-1);
    throw;
  }
  inflight.add(-1);
  if (res.status != 200) {
    throw ProtocolError("ias: HTTP " + std::to_string(res.status));
  }
  const auto sig_header = res.headers.get("X-IASReport-Signature");
  if (!sig_header) throw ProtocolError("ias: missing report signature header");

  VerificationReport avr;
  avr.body_json = vnfsgx::to_string(res.body);
  const Bytes sig = base64_decode(*sig_header);
  if (sig.size() != avr.signature.size()) {
    throw ProtocolError("ias: bad signature length");
  }
  std::copy(sig.begin(), sig.end(), avr.signature.begin());
  if (!avr.verify(report_key_)) {
    throw ReportSignatureError();
  }
  return avr;
}

}  // namespace vnfsgx::ias
