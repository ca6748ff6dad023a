#include "regfile/reg_ref.hpp"

namespace rcpn::regfile {

void RegRef::bind(RegisterFile* file, RegisterId r, const PlaceId* owner_place) {
  assert(!reserved_ && "rebinding a RegRef with a live reservation");
  file_ = file;
  reg_ = r;
  cell_ = file->reg(r).cell;
  owner_place_ = owner_place;
  value_ = 0;
  value_ready_ = false;
}

void RegRef::reset_for_reuse() {
  assert(!reserved_ && "reusing a RegRef with a live reservation");
  value_ready_ = false;
}

}  // namespace rcpn::regfile
