"""Golden SHA-256 digests of every deterministic artifact.

Reruns agreeing with each other say nothing about whether a change kept
the bytes; these constants do.  They cover the transcript container and
its JSON twin for the three worked presets under every kind and seeds
0-2 (plus p-lfr in broadcast mode) and for every kind at r = 1, at r = 4
and at engine-c10's C = 10 shape, the ``verify`` reports of every suite
and of three security instances, and the figure presets' ``curves.csv``.  The privacy
suite's report also pins its s-lfr control.  ``simulate`` and the
security suite also run under ``python -O``.  A change that alters any
of them changes what a (config, seed) pair produces and must say so.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from maclfr.cli import main
from maclfr.presets import WORKED_CONFIGURATIONS
from maclfr.schemes import SchemeConfig, SchemeKind, simulate
from maclfr.topology import TopologySpec
from maclfr.transcript import simulation_to_bytes, simulation_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = (0, 1, 2)
BROADCAST = "p-lfr-broadcast"

# "<preset>/<kind>/<seed>" -> digest of simulation_to_bytes (transcript.bin).
TRANSCRIPT_BIN = {
    "pairs-of-three/sp-lfr/0":
        "127b1ba85e2ceb484ad982a85c808769e7cec90f3cb3ebe19fbbbdd2c9b5eebd",
    "pairs-of-three/sp-lfr/1":
        "467e496cb5823f242cf49b84884996bb283b7d7c95f05f656d56b7ac40e4d62a",
    "pairs-of-three/sp-lfr/2":
        "f9140487285db32da118c4296605ee4e00f2bcfd7799b1e3371ee8def193f9eb",
    "pairs-of-three/p-lfr/0":
        "44311f9737d69d03c045d1b350b38acd2025a51f0636825b78f2963f7f850ebf",
    "pairs-of-three/p-lfr/1":
        "738254628793a476df732d4b63a5c665c92bdd02ee830330c6283eb39e676401",
    "pairs-of-three/p-lfr/2":
        "23405bcca326fdeed9e71fb118e5e4ba1f4853354bdc9c8e64199505dc1be136",
    "pairs-of-three/s-lfr/0":
        "800febba553ec9b3b1ec623491d3897dc9034add1b8598671d1c2ea8d948795d",
    "pairs-of-three/s-lfr/1":
        "314e761d2b92bfe93a10bfc3af46391d0bcdfa9876ce9d28d472ca2a42088928",
    "pairs-of-three/s-lfr/2":
        "9fe9ff641815385e3d8319ee84219876a73bc36bb83372eff9a1c53f01eeb13b",
    "pairs-of-three/is-lfr/0":
        "dc49d710bc7f3616de9e7f19865e29ae577e76b45d39952cecfd6cbdf54cf6d3",
    "pairs-of-three/is-lfr/1":
        "40954c258dedea62985229a59d238655320d990fc1d6547d19473d1a94fb5dfb",
    "pairs-of-three/is-lfr/2":
        "b0ed62f21aaef0879ff47e4dc33325a1ea93fc2d0069a61908438146302c404d",
    "pairs-of-three/lfr/0":
        "31e01b7a2196aa92de08fd9707bcb014c4ffba13b11629f170e52649a6200506",
    "pairs-of-three/lfr/1":
        "9fb1be08ce18196439aac399655fd6809e28a258c5856cbb69035ee993582f43",
    "pairs-of-three/lfr/2":
        "3d53c25e82d3720d46b4f8847cdcb7ef799fe9bb778ec5229da59deb1ca19e40",
    "pairs-of-three/p-lfr-broadcast/0":
        "1a9abc5ae217746b82db7e9a2a442e106daacd458766fcf059ab4ace95c62c3e",
    "pairs-of-three/p-lfr-broadcast/1":
        "b63cdec4be7fec20fe7735622965ed912a0785c5588a256d23b5b72fc8220c99",
    "pairs-of-three/p-lfr-broadcast/2":
        "28e8d205b36d65522e7061a5749d490c2a4348c578eccc5a36dfe2e8910063e1",
    "triples-of-five/sp-lfr/0":
        "40da16fd19254632d63e2c588b34c8c611505342e945e674f1faf392a02ec767",
    "triples-of-five/sp-lfr/1":
        "e414a48010bb7fa468e227f7bc48161eff6585bc275b61a004cae20280c71573",
    "triples-of-five/sp-lfr/2":
        "d7926be15391da562043b38822915907bf77472078fb05c5467ec4d9b0cdaf9c",
    "triples-of-five/p-lfr/0":
        "661a1b6a5a4351643a4fb1efe7e5844cb79560a73f3f5077a4f85d3575685d46",
    "triples-of-five/p-lfr/1":
        "61d2e42162738beba461beb74b1b8c3dafd85934f3dc2409c42b9c7fdefe298e",
    "triples-of-five/p-lfr/2":
        "d8fe34f4c44cdb1cd6bd7f31af0129ba0727f2ab0ebfb13cdfe8e599bd00df02",
    "triples-of-five/s-lfr/0":
        "ac033e2c791f1ed1f9ace900990d5df067e3bc766baf95ac5e1de0674ef440c4",
    "triples-of-five/s-lfr/1":
        "35f765fe700dd4b9c89826ce79002e19c8f9f03aec992ceb3214c55f787a833e",
    "triples-of-five/s-lfr/2":
        "f7688047f91983858de1eecc1cc11cc61baf323ccf89634de1a871208affc093",
    "triples-of-five/is-lfr/0":
        "cf924a80459101ff151d408835e843cbff43d21c106bf0d22862fd85a06d5903",
    "triples-of-five/is-lfr/1":
        "4627813318f66a60106ed77c4c97a748663efe6c314b75c434c24cb7b914b3ac",
    "triples-of-five/is-lfr/2":
        "0b83b6c6f631373a8bea6593782ef1a6fd41862ce07ff2743796e8092eed2eb3",
    "triples-of-five/lfr/0":
        "c810d9db8a0ea74a8cad0f857f9e1d710eedeb57e3c364b82de9e9c94eb9d596",
    "triples-of-five/lfr/1":
        "13edc53d02ee0aceb82fe466079c6e164e0ec6469e10adb584545b6ac9f10d4b",
    "triples-of-five/lfr/2":
        "baa762688d1c886583733539236aed761363513a38b82edbf535fe339aabeca5",
    "triples-of-five/p-lfr-broadcast/0":
        "e2951aa47716d77731835fcf5ff34e8b2d8ccb8e25aed15861bd553892dbc7b5",
    "triples-of-five/p-lfr-broadcast/1":
        "ea8f47c0119e70883df05e36e98d3ad4fa3b12084aae0959661082add25e137c",
    "triples-of-five/p-lfr-broadcast/2":
        "ae5bc1d212e4435664aa86a9f2f6533cb1396b46760fc8e372a2d3b3ff567214",
    "pairs-of-five/sp-lfr/0":
        "e56ecbcce1c61287171bd281c69216197bae50b7db2aae305f1bebc2b7c5b0b5",
    "pairs-of-five/sp-lfr/1":
        "89a6147663764bf1ba607136e570b44c1d919171bf1567d2a075cbce9a806b50",
    "pairs-of-five/sp-lfr/2":
        "7c95295bd9731f314c58f54adbb3b3b99fdfb196bd23044452e245d51ce23889",
    "pairs-of-five/p-lfr/0":
        "0eafb6a086ae6b7f1027d945c3fa6de41a71a85891e7fc0ac5f19f7ffacb0864",
    "pairs-of-five/p-lfr/1":
        "1a394ece02107ddd9251d4c7df355bc63cbafa4b62ee1ea1ca271ef20077c51e",
    "pairs-of-five/p-lfr/2":
        "c7b3c505ca7b28f55a5c67062764a72bf23741f2c831585c036a5b969f8a50a1",
    "pairs-of-five/s-lfr/0":
        "e1a96f5f8f42e6a0e499ed35ddca7c1d4fe59884c1026f76484b795c21f9310c",
    "pairs-of-five/s-lfr/1":
        "43f4b83d956bed2f28dace66e52fa3d477b9d70c8effadb433ab0af0ba9f915b",
    "pairs-of-five/s-lfr/2":
        "fa8a8d25e3a117f8c734e5c0553ed359110d63faf01388c127e187bf409daff4",
    "pairs-of-five/is-lfr/0":
        "fe7047f1fe27c3ed6310fa1003a6be8aeba2e14ad762f4ffa80506cfc0c25c72",
    "pairs-of-five/is-lfr/1":
        "ecb37d494d199f0d5a1b3c09c5b1ca25264c5b8239bd91fcfedb0ae55d7647ca",
    "pairs-of-five/is-lfr/2":
        "5437ae06943e5582a0bf6bd68e3bf1f510a2345c4fe0606f6743ec7a3171b558",
    "pairs-of-five/lfr/0":
        "21387d0310a4ca49ea8772056761e585ede812fadf6091c376dd123502250e61",
    "pairs-of-five/lfr/1":
        "df586efd06533b23ed421c60578ec876bbf3533664c3c18f12ac1c78c638e612",
    "pairs-of-five/lfr/2":
        "c5d63bca30aa7d1568f08c4d70de77f9eb49589bd04264ecfe398ade96c33f58",
    "pairs-of-five/p-lfr-broadcast/0":
        "aabaf30bf11e5e26f1c5c5b9605b140594e5be13159704a2ea45e13cdc04814b",
    "pairs-of-five/p-lfr-broadcast/1":
        "b691e7c8efa2b8d86df327a245ac1955ee84c8eb06f6fb3fb52b57b9184f8243",
    "pairs-of-five/p-lfr-broadcast/2":
        "9e7e56bf36b1acf0bdb9597e21d14690f4abe1b4ba3fcdb2b6789615065777f4",
}

# The same runs -> digest of simulation_to_json (transcript.json).
TRANSCRIPT_JSON = {
    "pairs-of-three/sp-lfr/0":
        "5e08d3e0ed16523f874847ebd35c45ba46506fe9410553c9e367e6c45c6d5eef",
    "pairs-of-three/sp-lfr/1":
        "a3acbd3493b8e07509ce8591973e7e63bb01acf39a717e9d7eac2a8e3ccd7ff0",
    "pairs-of-three/sp-lfr/2":
        "ed875fd5f58c01e28b2bc048bc3605a83f4073375f8c543d6bc7841ff64799c2",
    "pairs-of-three/p-lfr/0":
        "5d3ce7234423fee0ac9779bc836d6f80a607ef8bb15e5e31b46f3d7321e5ec73",
    "pairs-of-three/p-lfr/1":
        "d632217c5cbdf4a504eaf81b92d3a3b7d9eb82a967ed4a4ac695022e16615f1c",
    "pairs-of-three/p-lfr/2":
        "43bb73afbba1a2c715220f0e5c460a1becfad4dac388b0a1dfe9f8bdd6a0329d",
    "pairs-of-three/s-lfr/0":
        "20571b3859524c8caa70e0db300c2e359aa278379c684d080d065919fe94d504",
    "pairs-of-three/s-lfr/1":
        "4665668a90ed4f407e8a8aef6f7ade22a19b0dc04e402232377c3cc27d1df986",
    "pairs-of-three/s-lfr/2":
        "d6c17bd5dd5887d54cf79346d11d172ac9de60bd819548e9af384d195363740f",
    "pairs-of-three/is-lfr/0":
        "fa6547fc748074e6661f8e155cc685dfb7bb753ee34368113c782ae1b8c18dd5",
    "pairs-of-three/is-lfr/1":
        "2d26ed8893576cd7928f843329b76649814f65ec06923d9f0536a368cbb1de57",
    "pairs-of-three/is-lfr/2":
        "95cb23b5ebbb5dcb8f55571831d40eb61c2a2662305e7cf12e8323a345bc18d6",
    "pairs-of-three/lfr/0":
        "925b6a7f6bb4652d6ebcfe925a9637746e0418335a2edf643030e39f514fff28",
    "pairs-of-three/lfr/1":
        "214ab7f674baf0bb985501de10229931b3bca02b27b8b5acdf8bf07e9cfd9f43",
    "pairs-of-three/lfr/2":
        "889eec3b601dbc7839bfdeec19bf5a78138da28d3ad03c3b78edc5d11d4d6581",
    "pairs-of-three/p-lfr-broadcast/0":
        "98689db80bb0021986c3e08112778ecbf827fdc88213590e51a1b2714b1832b3",
    "pairs-of-three/p-lfr-broadcast/1":
        "b183d7b58a4276e4f5131fee1e2628a2de0f0b538f959576428f9fa55f6df2c0",
    "pairs-of-three/p-lfr-broadcast/2":
        "d053bc18b61156f7b3057cc7f5ddf4d4e4e3d7a882e524205583efeb083c4ca4",
    "triples-of-five/sp-lfr/0":
        "6880e58fe4b396b893c8a82ccf8f677ef095a9e180f07324c5e69c1fbd362348",
    "triples-of-five/sp-lfr/1":
        "8721a61499b6b5fd55ef194d2ee65e24c879dff1ba75ea2ece29ea9ad0006883",
    "triples-of-five/sp-lfr/2":
        "590a1bff6872ade03f9edc2ce4ce5a3dcad67ad1383ab5aec04514c0c672d2c6",
    "triples-of-five/p-lfr/0":
        "b6a102c7e7d30eb3a6a814b8ea06ef90df9c96eb3335a63375e272d5e44707e3",
    "triples-of-five/p-lfr/1":
        "361b485e1ad955acffff6d04053b923e25f8c444b20b43c5f7ce67ba959991ae",
    "triples-of-five/p-lfr/2":
        "6137e3c9b3c915fc0b903b92dd1e723d7fef44ef8ab194a630c3358c29362073",
    "triples-of-five/s-lfr/0":
        "f26ebafea611c9742e2b19bbf5b9ea2503fa9dbd6465172e6cffb532bedf2ecf",
    "triples-of-five/s-lfr/1":
        "f0c0369bdca3166e35dda0627f2e9aa639a66c0cb3ea267b56e68964190eedb8",
    "triples-of-five/s-lfr/2":
        "78c922d6f13b055d0c96cd0ef0039039d4b125954f0fca2f2fe1d9e6700d1d60",
    "triples-of-five/is-lfr/0":
        "f0e04d14f73f0be44ffc286fab97fc4072d02fc32b9163bbab34a95ff7c65787",
    "triples-of-five/is-lfr/1":
        "48324a6afa66b7367bc05384103df533b0dc2f0a321c1c1dfb3ca485b9c3396e",
    "triples-of-five/is-lfr/2":
        "40312f45d49148eadcb9e496ba4923a2f0045e584987423a95de7d84b86cc1a5",
    "triples-of-five/lfr/0":
        "e8e140953fa7dcb4bb93682d1001c7f5d0d23c587c48230abc26ac3faafc7fbd",
    "triples-of-five/lfr/1":
        "54a2ca145530ad71acf50588073d119feca2b5325ee1d6e0972323f278633c1b",
    "triples-of-five/lfr/2":
        "ad11ed74c4225c219b183b6a2d01a69b50f401909c0b61d58f50032423e24ff5",
    "triples-of-five/p-lfr-broadcast/0":
        "34b5f3dcdb8e653fb05fb72c79a7cd1255a1f4add602f8e99b0fc444c24481e0",
    "triples-of-five/p-lfr-broadcast/1":
        "8110255cf976e6634403624e9b19a431bbd74e63bd7c51f2c3a5704e8d7ef915",
    "triples-of-five/p-lfr-broadcast/2":
        "867c0eab1f8517b3a73a6915b07fb4f8a6c94e5c7bd8a98922e2ebc0049f06bc",
    "pairs-of-five/sp-lfr/0":
        "350adf559621d1860215fa38a35ba3b7ceff196fc442e699c91fdbc6bc248ee2",
    "pairs-of-five/sp-lfr/1":
        "7576275ff83d22eb9259d27ee96443548cdc1ea2e488a49d12cae7285ef21865",
    "pairs-of-five/sp-lfr/2":
        "5117fc45e40b36fe5fae0d926ab99fa074a64c64de6b117d4597829f1574bb31",
    "pairs-of-five/p-lfr/0":
        "ab7c6b52bd8a07a4f8591f99a41db14588d59698cfe5612184a1585c3e201394",
    "pairs-of-five/p-lfr/1":
        "b3534f22d536e14ce50bcd5be537c56686c9eb804c849f6f03a3f31fc6e9b2db",
    "pairs-of-five/p-lfr/2":
        "8d2d115c8e600ab23e9b125ecd57ed5a58297f153198f2e43bb3154a1fbf4507",
    "pairs-of-five/s-lfr/0":
        "9babc0f0d4ecd80f56ff6f6f757d14a8f596a7e957e9c6b13b62f4a1c0454a72",
    "pairs-of-five/s-lfr/1":
        "3dc3f4dbf159a5ce04293b977919333ab4cdddf8587ae2ed08e6e7060f224bec",
    "pairs-of-five/s-lfr/2":
        "6a075ec6e88714809aba2601428a65f07a4f35493a046c54a0a07b0465fd988a",
    "pairs-of-five/is-lfr/0":
        "57131ae92ec178ccc636bd07b18d4c1bd2e028960efa80190c1d356cec3cf659",
    "pairs-of-five/is-lfr/1":
        "ae8f2a4d3473a8abf10a96b2037e6ce270ae128086b9c4a3a13ad88f7372cd69",
    "pairs-of-five/is-lfr/2":
        "53b20de1971a3d316c1962591edcafdd704a15bf005422b38e9155586728e3d2",
    "pairs-of-five/lfr/0":
        "4495b2a925c1ce099252187ede58864432e0c5adde4f86cc7ee26cd27c9d9051",
    "pairs-of-five/lfr/1":
        "f26ddef8082eb699fde5a4d1904f3218f837813265ea65ef7435d5a573cdbbd1",
    "pairs-of-five/lfr/2":
        "32cf98c4d30f3b620cfde32e0dfd7238cb2597627a5d0489b551df53d6351a72",
    "pairs-of-five/p-lfr-broadcast/0":
        "b6d6e69b52d301f3eb51e095b4f9d776dcf6fdbc8abafef8387b55dc4d755ee3",
    "pairs-of-five/p-lfr-broadcast/1":
        "0578b8a80d6e96c32419a782769e6f5bd0e4bdee16ba01bdb51b8f73a891eb19",
    "pairs-of-five/p-lfr-broadcast/2":
        "4e00145801a5dcece7ea99ca67190358c0123c4483054b093262410012b6449d",
}

# Rounds off the presets, each kind under its random demands ->
# (transcript.bin, transcript.json) digests, keyed "<C>-<r>-<t>/<kind>/<seed>".
# r = 1 (C=4 t=2, N=3, F=31) keeps one whole share per slot; r = 4 (C=5
# t=1, N=3, F=22) has 5-bit subfiles in 6-bit share blocks of 3-bit symbols,
# so every share carries tail padding; and engine-c10's shape (C=10 r=3 t=3,
# N=20, F=1920) at seed 1.
OFF_PRESET_SHAPES = {"4-1-2": (3, 31), "5-4-1": (3, 22), "10-3-3": (20, 1920)}
OFF_PRESET_ROUNDS = {
    "4-1-2/sp-lfr/0": (
        "6e98818db099e479bce4abeeb5c26becffa274b0069869871b74c30b449ac847",
        "9f124f84fda5df84da6e5a4a67f25eec41b830c649c0d2d30df56bb3e1914432"),
    "4-1-2/p-lfr/0": (
        "b290f361d8350848489d6bf6069a4b05286393dac385e6d532eb1bf513da6e21",
        "42054a4616e1af62d7fc287c099708666861547c51acd47219b6515305f1fd87"),
    "4-1-2/s-lfr/0": (
        "7bfa7bd675f0a81718d6245734f10d37f94ac03ccfb8ac1c3ca8144954188211",
        "a5e5a656d4803afc5291141f9a8289f07cca43ced0cd43e786ea1938b49fff31"),
    "4-1-2/is-lfr/0": (
        "403087dbc02e19096d47add50c14f6e46c7ff7157696c821fad53a794fec516e",
        "925e08ed61bc74e33d9b9a5433c1affeb864263312b5bea3298b4dbe3d2c197c"),
    "4-1-2/lfr/0": (
        "6c44cba74c4f0f5636742b6bad4d4c3bcaeabb6df6f4d83486ea17d5389aed99",
        "8aef58558690f48fc0c5e5fb6e6bf9ca96c78c1929f98a87563bea815e09bad4"),
    "5-4-1/sp-lfr/0": (
        "b4a8bed1e65bc4587f4235d9a578d06e87933ff7e193862d693af6c9287bb9b8",
        "11c9a2f9ef5cdc9c26019638fa6af94b043a541347c222604390034abefab925"),
    "5-4-1/p-lfr/0": (
        "1cbaaff008159f49c8f86747fdfca2ffd57fb7143aa23f1bc547ad3d5e509239",
        "934364f064d7a8e2a3f8387d468fd8bef88ee40378786f1dacf5fdd3e56bfcc8"),
    "5-4-1/s-lfr/0": (
        "ea36904184bcd4ecec2dceebb9d94bb42a0d6d1bdb1da6e91113a7c6fd962d00",
        "a027a61f0b693de4091450bdcc7aa2df2814ee19ee2122c02e4c8dee76360d21"),
    "5-4-1/is-lfr/0": (
        "707f857ce664e647a919c0236921ed242a98ab69b96aea2c20a55776addac6a6",
        "3bd35e46dd679d8a2795d64f9894f2905da85a85a05493e9819b6afb4576cf8a"),
    "5-4-1/lfr/0": (
        "9be7431629f3121442bca6a3724a50ac6839098fe64fcc1df0821d5d4005a602",
        "698e7a06b522a7bd2b1fe50f3697816b322631f1fb5702c4e70e2c6fb56553c3"),
    "10-3-3/sp-lfr/1": (
        "bd6ba4efdcf44384c1fd61db01b287bd4495aff3ce781d91f36b1c38bf4b437a",
        "79f9d696766294c176f5800ab79c82535aa9552f11cc4b3c018e3aa9263107d6"),
    "10-3-3/p-lfr/1": (
        "89770503a02b88e468664af5512dc337af53ef0f9a2f8c384081ee75f87f385e",
        "a1d989472845cc397b0d2c67e2e3041d6599ba142614720bb352cdb347a0fb68"),
    "10-3-3/s-lfr/1": (
        "23586adf67a14e9ed7154dcdd21a35ff017d287a7a7fe2dc6ac835edf6f4b708",
        "2e12195ebb4a51a922eae461267e604530d2497d55a718f2ce09478af0ae7d8c"),
    "10-3-3/is-lfr/1": (
        "7fd3c946338ef0f2febd428ef4d747017f22c6f4fb61b11b4c35abf10eb99044",
        "673db9bfd6783eb5797d27af9939f294cf2847468072c296832e23ba9a92a3e3"),
    "10-3-3/lfr/1": (
        "243c0970ece984046f326a30fd92a6efe58842b2838ec5d14f593ccc15e49a10",
        "42801d0992efbe56e42dc5be0da216ae3f56031b7d4e7c4ee1ae939deffac850"),
}

# `maclfr verify --suite <suite> --seed 0` -> digest of report.json.
REPORTS = {
    "correctness":
        "4720a7882baf041cedefbb0a01a5ee743db97befadb8630debdec4acffb3ab36",
    "privacy":
        "f4683c2a65dc42e76bf7244b349d6bf9c9bd885df66e4d8d866997264b852f6a",
    "security":
        "4f3f7a53baa8f3a05ea391f8ef58e50d5a919699175a6777ac136b50b38df377",
    "shares":
        "143648a9e0876d29f6adfe7f27ea11527ab976cbc34e40dab6fadc4181cfb83c",
}

# `maclfr verify --suite security --C 3 --r 2 --t 1 --N 2 --scheme <kind>
# --seed 0` -> digest of report.json.  All three take the affine route,
# the security oracle's only one: s-lfr and sp-lfr are certified by the
# fixed point, and lfr reports the exact mutual information of its rank
# sum; all three run the engine on randomness unpacked from
# RandomnessLayout, sp-lfr's without its coef run, which no transmission
# reads.  test_verify cross-checks s-lfr and lfr against its enumeration
# reference.
SECURITY_INSTANCES = {
    "s-lfr":
        "f2a874f0f5270e49bbfa4514649ffe91b2ab6e0b85a7b691a006357f556e4572",
    "sp-lfr":
        "8a9b241852b2161ee2e6e095f7e09164009e6bc42b83e290ee719e935a335dc6",
    "lfr":
        "4b7df953bf6a4d23aa67fdb06a33029ee4cb79480690621d7eff664dfd8d8f7d",
}

# `maclfr curve --figure <n>` -> digest of curves.csv.
CURVES = {
    2:
        "67aedd136c77bcc082939dd94b584904001a90423934c37ac1585781b6a348f0",
    3:
        "0714dbbca9ea13eec1f9184b2a38280321df322eea7a066b4bffae8e64808494",
    4:
        "ee57eeba833737f63e7d47b54f9628dacbfa46ccea734ad5f91a6b33a47de6df",
    5:
        "efa13ae01460f03ebd4b86eb722fbd92875c6d3f91e1e3482c7a5519be480070",
}


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def quiet_main(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("variant",
                         [k.value for k in SchemeKind] + [BROADCAST])
@pytest.mark.parametrize("preset", sorted(WORKED_CONFIGURATIONS))
def test_simulation_artifacts_match_golden_digests(preset, variant):
    worked = WORKED_CONFIGURATIONS[preset]
    for seed in SEEDS:
        if variant == BROADCAST:
            cfg = replace(worked.config(SchemeKind.P_LFR, seed),
                          broadcast=True)
        else:
            cfg = worked.config(SchemeKind(variant), seed)
        result = simulate(cfg, demands=worked.demands())
        key = f"{preset}/{variant}/{seed}"
        assert sha256(simulation_to_bytes(result)) == TRANSCRIPT_BIN[key], key
        assert sha256(simulation_to_json(result)) == TRANSCRIPT_JSON[key], key


@pytest.mark.parametrize("key", sorted(OFF_PRESET_ROUNDS))
def test_off_preset_artifacts_match_golden_digests(key):
    shape, kind, seed = key.split("/")
    num_files, file_bits = OFF_PRESET_SHAPES[shape]
    topo = TopologySpec(*map(int, shape.split("-")))
    cfg = SchemeConfig(topo, num_files, file_bits, SchemeKind(kind),
                       seed=int(seed))
    result = simulate(cfg)
    assert result.ok
    assert (sha256(simulation_to_bytes(result)),
            sha256(simulation_to_json(result))) == OFF_PRESET_ROUNDS[key]


@pytest.mark.parametrize("suite", sorted(REPORTS))
def test_verify_report_matches_golden_digest(suite, tmp_path):
    assert quiet_main("verify", "--suite", suite, "--seed", "0",
                      "--out", str(tmp_path)) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == REPORTS[suite]


@pytest.mark.parametrize("kind", sorted(SECURITY_INSTANCES))
def test_security_instance_report_matches_golden_digest(kind, tmp_path):
    assert quiet_main("verify", "--suite", "security", "--C", "3", "--r", "2",
                      "--t", "1", "--N", "2", "--scheme", kind,
                      "--seed", "0", "--out", str(tmp_path)) == 0
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == SECURITY_INSTANCES[kind]


@pytest.mark.parametrize("figure", sorted(CURVES))
def test_figure_curves_match_golden_digest(figure, tmp_path):
    assert quiet_main("curve", "--figure", str(figure),
                      "--out", str(tmp_path)) == 0
    assert sha256((tmp_path / "curves.csv").read_bytes()) == CURVES[figure]


# pairs-of-three keeps its ids; triples-of-five (r = 3) adds its own.
OPTIMIZE_RUNS = [pytest.param(preset, k.value, id=prefix + k.value)
                 for preset, prefix in (("pairs-of-three", ""),
                                        ("triples-of-five", "triples-of-five-"))
                 for k in SchemeKind]


@pytest.mark.parametrize("preset,kind", OPTIMIZE_RUNS)
def test_simulate_under_python_optimize_matches_golden_digest(preset, kind,
                                                              tmp_path):
    # -O strips assert statements: a check that only an assert made would
    # vanish here, and the artifact or the exit code would show it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "simulate",
         "--preset", preset, "--scheme", kind, "--seed", "0",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "transcript.bin").read_bytes())
    assert digest == TRANSCRIPT_BIN[f"{preset}/{kind}/0"]


def test_no_source_check_is_an_assert_statement():
    # -O strips assert statements, so every check in the package raises
    # explicitly; this holds the sources to it, not only the runs above.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "maclfr").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_security_verify_under_python_optimize_matches_golden_digest(
        tmp_path):
    # The security runs' layout, unpack plan and subfile tables give the
    # same report with assert statements stripped.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "verify",
         "--suite", "security", "--seed", "0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == REPORTS["security"]


def test_correctness_verify_under_python_optimize_matches_golden_digest(
        tmp_path):
    # Every kind's decode_rows, its decode plan and its gathers give the
    # same report with assert statements stripped.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "verify",
         "--suite", "correctness", "--seed", "0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == REPORTS["correctness"]
