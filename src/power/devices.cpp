#include "power/devices.hpp"

namespace wile::power {

Esp32PowerProfile harvesting_class_profile() {
  Esp32PowerProfile p;
  p.deep_sleep = microamps(0.5);
  p.cpu_active = milliamps(8.0);
  p.radio_tx = milliamps(90.0);
  p.boot_from_deep_sleep = msec(3);
  p.wifi_inject_init = msec(5);
  p.shutdown_time = msec(1);
  return p;
}

}  // namespace wile::power
