#include <gtest/gtest.h>

#include "fixtures.hpp"

namespace as = apar::serial;
namespace rpc = apar::cluster::rpc;
using apar::test::Counter;
using apar::test::register_counter;

class RpcRegistry : public ::testing::TestWithParam<as::Format> {
 protected:
  RpcRegistry() { register_counter(registry_); }
  rpc::Registry registry_;
};

INSTANTIATE_TEST_SUITE_P(Formats, RpcRegistry,
                         ::testing::Values(as::Format::kCompact,
                                           as::Format::kVerbose),
                         [](const auto& info) {
                           return info.param == as::Format::kCompact
                                      ? "Compact"
                                      : "Verbose";
                         });

TEST_P(RpcRegistry, ConstructFromMarshalledArgs) {
  const auto& cls = registry_.find("Counter");
  auto args = as::encode(GetParam(), 42LL);
  as::Reader in(args, GetParam());
  auto instance = cls.construct(in);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(static_cast<Counter*>(instance.get())->get(), 42);
}

TEST_P(RpcRegistry, InvokeVoidMethodRepliesWithCopyRestoredArgs) {
  const auto& cls = registry_.find("Counter");
  Counter counter(0);
  auto args = as::encode(GetParam(), 7LL);
  as::Reader in(args, GetParam());
  as::Writer out(GetParam());
  cls.method("add").invoke(&counter, in, out);
  EXPECT_EQ(counter.get(), 7);
  // Reply carries the (unmutated) argument back.
  const auto [echoed] = as::decode<long long>(out.bytes(), GetParam());
  EXPECT_EQ(echoed, 7);
}

TEST_P(RpcRegistry, InvokeReturnsResultAfterArgs) {
  const auto& cls = registry_.find("Counter");
  Counter counter(5);
  auto args = as::encode(GetParam());
  as::Reader in(args, GetParam());
  as::Writer out(GetParam());
  cls.method("get").invoke(&counter, in, out);
  const auto [result] = as::decode<long long>(out.bytes(), GetParam());
  EXPECT_EQ(result, 5);
}

TEST_P(RpcRegistry, MutatedReferenceArgsTravelBack) {
  const auto& cls = registry_.find("Counter");
  Counter counter(0);
  const std::vector<long long> pack{1, 2, 3};
  auto args = as::encode(GetParam(), pack);
  as::Reader in(args, GetParam());
  as::Writer out(GetParam());
  cls.method("absorb").invoke(&counter, in, out);
  EXPECT_EQ(counter.get(), 6);
  const auto [restored] =
      as::decode<std::vector<long long>>(out.bytes(), GetParam());
  EXPECT_EQ(restored, (std::vector<long long>{0, 0, 0}));
}

TEST_P(RpcRegistry, StringArgsAndResult) {
  const auto& cls = registry_.find("Counter");
  Counter counter(0);
  auto args = as::encode(GetParam(), std::string("world"));
  as::Reader in(args, GetParam());
  as::Writer out(GetParam());
  cls.method("greet").invoke(&counter, in, out);
  const auto [echoed, result] =
      as::decode<std::string, std::string>(out.bytes(), GetParam());
  EXPECT_EQ(echoed, "world");
  EXPECT_EQ(result, "hello world");
}

TEST(RpcRegistryErrors, UnknownClassThrows) {
  rpc::Registry registry;
  EXPECT_THROW((void)registry.find("Nope"), rpc::RpcError);
  EXPECT_FALSE(registry.contains("Nope"));
}

TEST(RpcRegistryErrors, UnknownMethodThrows) {
  rpc::Registry registry;
  register_counter(registry);
  EXPECT_THROW((void)registry.find("Counter").method("nope"), rpc::RpcError);
}

TEST(RpcRegistryErrors, MalformedArgsThrow) {
  rpc::Registry registry;
  register_counter(registry);
  const auto& cls = registry.find("Counter");
  std::vector<std::byte> garbage{std::byte{1}};
  as::Reader in(garbage, as::Format::kCompact);
  Counter counter(0);
  as::Writer out(as::Format::kCompact);
  EXPECT_THROW(cls.method("add").invoke(&counter, in, out), as::SerialError);
}

TEST(RpcRegistryErrors, SizeCountsClasses) {
  rpc::Registry registry;
  EXPECT_EQ(registry.size(), 0u);
  register_counter(registry);
  EXPECT_EQ(registry.size(), 1u);
}
